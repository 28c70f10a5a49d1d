"""The benchmark's three workloads, each a closed loop with one caller.

A workload sets up (``make_data`` then ``prepare``), then runs timed
rounds. A round is a fixed amount of work that depends only on the seed,
so every round of a run, and every run at one seed, must report the same
mAP. Each round times its repeated unit (``Round.units``) with thin
wrappers around the public functions that bound it, and checks its
outputs after the clock stops.

Why each workload exists:

- ``train_phase1``: the phase-1 loop, the only workload with a tape
  backward over large matmuls, dropout masks, Hungarian matching and
  AdamW.
- ``eval_sweep``: ``sceneact eval`` through the CLI, forward only; every
  aggregation strategy reruns the 13-window forward of every clip.
- ``phase2_fit``: the frozen-model long-term fit; a windowed precompute,
  then a full-batch fit whose backward walks thousands of tiny nodes.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import math
import shutil
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from sceneact import cli, longterm, synthdata, training
from sceneact.checkpoint import params_hash
from sceneact.config import config_from_dict, config_to_dict
from sceneact.longterm import AggregationWeights, aggregate
from sceneact.rng import RngStream
from sceneact.synthdata import Dataset
from sceneact.training import AdamW, load_train_state

from spans import patch_everywhere, unpatch

PHASE1_EPOCHS = 1  # epochs per train_phase1 round, and of the set-up's phase-1 run
# Train / eval clips of the set-up's phase-1 run. It warms up train_phase1 and
# makes the frozen checkpoint of eval_sweep and phase2_fit; a full 200-clip
# epoch would take about 9 s, three times per run, for no change in the timed work.
WARM_CLIPS = (40, 10)
EVAL_ARGS = ["--topk", "--threshold", "0.5",
             "--strategy", "weighted", "--strategy", "avg", "--strategy", "max"]
EVAL_REPORTS = ("sampling_tau_0.5", "sampling_topk",
                "strategy_weighted", "strategy_avg", "strategy_max")


@dataclass(frozen=True)
class Scale:
    """Input sizes. ``full`` is the benchmark; ``smoke`` only exercises the harness."""

    clips: tuple[int, int] | None  # (train, eval); None keeps the default scenario
    min_units: int  # repeated units a run needs before it may stop
    setup_repeats: int


SCALES = {
    "full": Scale(clips=None, min_units=100, setup_repeats=3),
    "smoke": Scale(clips=(8, 4), min_units=1, setup_repeats=1),
}


def run_config(seed: int, clips: tuple[int, int] | None):
    data = {"seed": seed, "optimizer": {"epochs": PHASE1_EPOCHS}}
    if clips is not None:
        data["scenario"] = {"train_clips": clips[0], "eval_clips": clips[1]}
    return config_from_dict(data)


def train_warm(cfg, dataset: Dataset, out: Path) -> Path:
    """The set-up's phase-1 run on the first WARM_CLIPS clips; returns its last.ckpt."""
    warm = Dataset(cfg.scenario, dataset.train[: WARM_CLIPS[0]], dataset.eval[: WARM_CLIPS[1]])
    training.train_short_term(warm, cfg.model, cfg.loss, cfg.optimizer, RngStream(cfg.seed),
                              windowing=cfg.windowing, out_dir=out)
    return out / "last.ckpt"


@dataclass
class Round:
    items: int  # user-facing work items attempted
    seconds: float
    units: list[float]  # latency of each repeated unit, seconds
    map: float
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def fail(self, count: int, problem: str):
        self.failed = min(self.items, self.failed + count)
        self.problems.append(problem)


@contextlib.contextmanager
def hooked(owner, attr: str, before=None, after=None):
    """Call ``before(args)`` and ``after(result)`` around every call of owner.attr."""

    def make(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            result = fn(*args, **kwargs)
            if after is not None:
                after(result)
            return result

        return wrapper

    undo = patch_everywhere(owner, attr, make)
    try:
        yield
    finally:
        unpatch(undo)


def _file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _finite(*values) -> bool:
    return all(np.all(np.isfinite(np.asarray(v, dtype=np.float64))) for v in values)


def _timed(fn, tracer=None):
    """Run fn(); return (result or None, seconds, formatted exception or None).

    With a tracer, its wrappers are installed around fn only, and fn runs in
    a root span. They wrap the workload's hooks, which are installed first,
    so a hook's own time falls inside the span of the function it hooks.
    """
    with contextlib.ExitStack() as stack:
        if tracer is not None:
            stack.enter_context(tracer)
            stack.enter_context(tracer.span("bench.round"))
        t0 = time.perf_counter()
        try:
            result, error = fn(), None
        except Exception:  # a raising round counts its items as failed
            result, error = None, traceback.format_exc()
            print(error, file=sys.stderr)
        seconds = time.perf_counter() - t0
    return result, seconds, error


class Workload:
    name = ""

    def __init__(self, seed: int, scale: Scale, root: Path):
        self.seed = seed
        self.scale = scale
        self.root = root
        self.dir = root

    def setup(self, index: int, tracer=None) -> tuple[float, str]:
        """One full set-up in a fresh directory; returns (seconds, product digest)."""
        self.dir = self.root / f"setup{index}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        t0 = time.perf_counter()
        with tracer if tracer is not None else contextlib.nullcontext():
            self.make_data()
        digest = self.prepare()
        return time.perf_counter() - t0, digest

    def make_data(self):
        raise NotImplementedError

    def prepare(self) -> str:
        raise NotImplementedError

    def run_round(self, index: int, tracer=None) -> Round:
        raise NotImplementedError


class TrainPhase1(Workload):
    """train_short_term on the default scenario; unit: one optimizer step."""

    name = "train_phase1"

    def make_data(self):
        self.cfg = run_config(self.seed, self.scale.clips)
        self.dataset = synthdata.generate_dataset(self.cfg.scenario)

    def prepare(self) -> str:
        return _file_digest(train_warm(self.cfg, self.dataset, self.dir / "warmup"))

    def run_round(self, index: int, tracer=None) -> Round:
        cfg = self.cfg
        out = self.dir / f"round{index}"
        log_lines: list[str] = []
        units: list[float] = []
        step_start: list[float] = []

        def step_begins(_args):
            if not step_start:
                step_start.append(time.perf_counter())

        def step_ends(_result):
            units.append(time.perf_counter() - step_start.pop())

        with hooked(training, "temporal_augment", before=step_begins), \
                hooked(AdamW, "step", after=step_ends):
            state, seconds, error = _timed(lambda: training.train_short_term(
                self.dataset, cfg.model, cfg.loss, cfg.optimizer, RngStream(cfg.seed),
                windowing=cfg.windowing, out_dir=out, log_lines=log_lines,
            ), tracer)
        n_train = len(self.dataset.train)
        rnd = Round(items=n_train * cfg.optimizer.epochs, seconds=seconds, units=units,
                    map=float("nan"))
        if error is not None:
            rnd.fail(rnd.items, f"train_short_term raised: {error.splitlines()[-1]}")
            return rnd
        rnd.map = state.history[-1][2]
        steps = math.ceil(n_train / cfg.optimizer.batch_size) * cfg.optimizer.epochs
        losses = [float(line.split()[3]) for line in log_lines if line.startswith("step ")]
        if len(losses) != steps or not _finite(losses):
            rnd.fail(rnd.items, f"expected {steps} finite step losses, got {losses[:3]}...")
        if not _finite([h[1:] for h in state.history]):
            rnd.fail(rnd.items, f"non-finite epoch loss or mAP: {state.history}")
        saved, _, _ = load_train_state(out / "last.ckpt", cfg.optimizer)
        for p, q in zip(state.params.parameters(), saved.params.parameters()):
            if not np.array_equal(p.value.data, q.value.data):
                rnd.fail(rnd.items, f"last.ckpt does not round-trip parameter {p.name}")
                break
        return rnd


class EvalSweep(Workload):
    """``sceneact eval`` in-process through cli.main; unit: one run_windowed call."""

    name = "eval_sweep"

    def make_data(self):
        self.cfg = run_config(self.seed, self.scale.clips)
        self.config_path = self.dir / "config.json"
        self.config_path.write_text(json.dumps(config_to_dict(self.cfg)))
        self.data_dir = self.dir / "data"
        self._cli("generate", "--config", self.config_path, "--out", self.data_dir)
        manifest = json.loads((self.data_dir / "manifest.json").read_text())
        self.eval_clips = [c["clip_id"] for c in manifest["clips"] if c["split"] == "eval"]

    def prepare(self) -> str:
        dataset = synthdata.generate_dataset(self.cfg.scenario)  # what the CLI regenerates
        self.checkpoint = train_warm(self.cfg, dataset, self.dir / "phase1")
        return _file_digest(self.checkpoint)

    @staticmethod
    def _cli(*argv):
        code = cli.main([str(a) for a in argv])
        if code != 0:
            raise RuntimeError(f"sceneact {argv[0]} exited with {code}")

    def run_round(self, index: int, tracer=None) -> Round:
        out = self.dir / f"round{index}"
        argv = ["eval", "--checkpoint", str(self.checkpoint), "--dataset", str(self.data_dir),
                "--out", str(out), *EVAL_ARGS]
        units: list[float] = []
        windowed: list = []
        reports: dict = {}
        call_start: list[float] = []

        def windowed_ends(ws):
            units.append(time.perf_counter() - call_start.pop())
            windowed.append(ws)

        def report_written(args):  # write_report(report, out_dir, prefix)
            reports[args[2]] = args[0]

        with hooked(longterm, "run_windowed",
                    before=lambda _a: call_start.append(time.perf_counter()),
                    after=windowed_ends), \
                hooked(cli, "write_report", before=report_written):
            code, seconds, error = _timed(lambda: cli.main(argv), tracer)
        clips = self.eval_clips
        rnd = Round(items=len(EVAL_REPORTS) * len(clips), seconds=seconds, units=units,
                    map=float("nan"))
        if error is not None or code != 0 or sorted(reports) != sorted(EVAL_REPORTS):
            rnd.fail(rnd.items, f"eval failed: code {code}, reports {sorted(reports)}, {error}")
            return rnd
        rnd.map = reports["strategy_avg"].mean_ap
        failed: set = set()
        for name, report in reports.items():
            aps = [v for v in report.per_class_ap.values() if v is not None]
            if not _finite(report.mean_ap, aps):
                failed.update((c, name) for c in clips)
                rnd.problems.append(f"{name}: non-finite AP")
        by_clip: dict = {}
        for ws in windowed:
            by_clip.setdefault(ws.clip.clip_id, []).append(ws)
        initial = AggregationWeights.initial(self.cfg.windowing, self.cfg.model.num_classes)
        for clip_id in clips:
            problem = self._check_windows(by_clip.get(clip_id, []), initial)
            if problem:
                failed.update((clip_id, n) for n in EVAL_REPORTS if n.startswith("strategy_"))
                rnd.problems.append(f"{clip_id}: {problem}")
        rnd.failed = len(failed)
        return rnd

    @staticmethod
    def _check_windows(runs: list, initial: AggregationWeights) -> str | None:
        """README equalities, bit for bit, on one clip's windowed scores."""
        if len(runs) != 3:
            return f"{len(runs)} windowed runs, expected one per strategy"
        ws = runs[0]
        if not _finite(ws.scores):
            return "non-finite windowed score"
        if not all(np.array_equal(ws.scores, other.scores) for other in runs[1:]):
            return "windowed scores differ between strategies"
        n_win = ws.scores.shape[0]
        if not np.array_equal(aggregate(ws, None, "avg"), aggregate(ws, None, "topk", n_win)):
            return "avg != topk(num_windows)"
        if not np.array_equal(aggregate(ws, None, "max"), aggregate(ws, None, "topk", 1)):
            return "max != topk(1)"
        if not np.array_equal(aggregate(ws, initial, "weighted"), ws.scores[ws.offsets.index(0)]):
            return "weighted(initial one-hot) != keyframe-window scores"
        return None


class Phase2Fit(Workload):
    """train_long_term on the frozen checkpoint; unit: one aggregation-fit epoch."""

    name = "phase2_fit"

    def make_data(self):
        self.cfg = run_config(self.seed, self.scale.clips)
        self.dataset = synthdata.generate_dataset(self.cfg.scenario)

    def prepare(self) -> str:
        cfg = self.cfg
        self.checkpoint = train_warm(cfg, self.dataset, self.dir / "phase1")
        state, _, _ = load_train_state(self.checkpoint, cfg.optimizer)
        self.frozen_hash = params_hash({p.name: p.value.data for p in state.params.parameters()})
        return _file_digest(self.checkpoint)

    def run_round(self, index: int, tracer=None) -> Round:
        cfg = self.cfg
        units: list[float] = []
        losses: list[float] = []
        epoch_start: list[float] = []

        def loss_built(loss):
            losses.append(loss.item())

        def step_ends(_result):
            units.append(time.perf_counter() - epoch_start.pop())

        def fit():
            state, model_cfg, _ = load_train_state(self.checkpoint, cfg.optimizer)
            weights, report = training.train_long_term(
                state, self.dataset, model_cfg, cfg.loss, cfg.optimizer, cfg.windowing)
            return state, weights, report

        with hooked(longterm, "aggregation_loss",
                    before=lambda _a: epoch_start.append(time.perf_counter()),
                    after=loss_built), \
                hooked(AdamW, "step", after=step_ends):
            result, seconds, error = _timed(fit, tracer)
        rnd = Round(items=len(self.dataset.train), seconds=seconds, units=units,
                    map=float("nan"))
        if error is not None:
            rnd.fail(rnd.items, f"train_long_term raised: {error.splitlines()[-1]}")
            return rnd
        state, weights, report = result
        rnd.map = report["long_term_map"]
        if len(losses) != cfg.optimizer.aggregation_epochs or not _finite(losses):
            rnd.fail(rnd.items, f"expected {cfg.optimizer.aggregation_epochs} finite fit losses")
        if not _finite(weights.weights, report["long_term_map"], report["short_term_map"]):
            rnd.fail(rnd.items, "non-finite aggregation weights or mAP")
        after = params_hash({p.name: p.value.data for p in state.params.parameters()})
        if not (after == report["params_hash"] == self.frozen_hash):
            rnd.fail(rnd.items, "frozen parameters changed during phase 2")
        return rnd


WORKLOADS = {w.name: w for w in (TrainPhase1, EvalSweep, Phase2Fit)}
