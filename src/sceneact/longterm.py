"""Sliding-window inference and learned per-class score aggregation.

A keyframe's proposals are fixed once; the model is re-run on short
windows slid across the long clip, and the per-window action scores are
fused per class. The weighted-sum strategy uses trainable weights (one
per window offset and class) that carry the ``WindowingConfig`` they were
fitted on, so they fuse only windows of that geometry; max, average and
top-k pooling are expressed through the same summation kernel so their
documented equalities hold bit-for-bit.

Phase-2 training ("long-term") freezes the relation model entirely: the
per-window scores become constants, and only the aggregation weights
receive gradient. The scores of every training clip are computed and
matched to the keyframe truth once, then stacked, so each epoch's
objective is one tape expression over constant arrays, whatever the
number of clips or windows, and with no (clips, K, windows, classes)
temporary. The fused score is a probability, so it
enters the focal classification loss through its clamped logit; the
weights are kept non-negative, so fusion never inverts the ranking within
a class, and the fit starts from the one-hot keyframe weights, i.e. the
short-term model. ``map_on_pool`` runs the forwards of every window, of
the short-term eval and of each phase-1 step on one thread per usable CPU,
with at most four jobs per worker in flight, so lazily built grids stay
few in memory; ``stack_runs`` cuts a pass, or a phase-1 step's clips, into
the stacks its jobs take. ``score_pass`` scores one flat stream of forwards
in one pass: phase 2 streams its train clips' windows, then its eval clips',
the short-term eval its clips' keyframes. ``cmd_eval`` still calls
``run_windowed`` clip by clip, once per strategy, as ``eval_sweep`` expects.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import model as mdl
from .errors import ConfigError, ContractError
from .matching import LossConfig, matched_targets
from .rng import RngStream
from .synthdata import ClipSample, ground_truth_set, window_grid

STRATEGIES = ("weighted", "max", "avg", "topk")

_PROB_EPS = 1e-9  # probability clamp before taking logits


@dataclass(frozen=True)
class WindowingConfig:
    """Short-window and long-span geometry in seconds."""

    t_before: float = 1.05  # T_p
    t_after: float = 1.05  # T_f
    long_before: float = 6.0  # L_p
    long_after: float = 6.0  # L_f
    stride: float = 1.0  # W

    def __post_init__(self):
        if self.stride <= 0:
            raise ConfigError(f"stride must be positive, got {self.stride}")
        for name in ("t_before", "t_after", "long_before", "long_after"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be nonnegative, got {getattr(self, name)}")

    @property
    def offsets(self) -> list[int]:
        return list(
            range(-math.floor(self.long_before / self.stride),
                  math.floor(self.long_after / self.stride) + 1)
        )

    @property
    def num_windows(self) -> int:
        return len(self.offsets)


@dataclass
class AggregationWeights:
    """One fusion weight per (window, action class) of the windowing they were fitted on."""

    windowing: WindowingConfig
    weights: np.ndarray  # (num_windows, num_classes)

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        if self.weights.shape[0] != self.windowing.num_windows:
            raise ContractError("one weight row per window required")

    @classmethod
    def initial(cls, cfg: WindowingConfig, num_classes: int) -> "AggregationWeights":
        """One-hot at offset 0: fused output starts at exact short-term behavior."""
        w = np.zeros((cfg.num_windows, num_classes))
        w[cfg.offsets.index(0)] = 1.0
        return cls(cfg, w)


def windows(cfg: WindowingConfig, keyframe_time: float) -> list[tuple[int, tuple[float, float]]]:
    """(offset index, absolute clip interval) per window, ascending."""
    out = []
    for n in cfg.offsets:
        center = keyframe_time + cfg.stride * n
        out.append((n, (center - cfg.t_before, center + cfg.t_after)))
    return out


@dataclass
class WindowedScores:
    """Per-window action scores for one clip's fixed proposal set."""

    clip: ClipSample
    offsets: tuple[int, ...]
    scores: np.ndarray  # (num_windows, num_classes, K) post-sigmoid


# one worker per usable CPU: the process's CPU affinity, where the platform has one
_WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
STACK_MAX = 3  # the most forwards (proposal sets on grids) one pool job stacks


@functools.cache
def _window_pool() -> ThreadPoolExecutor:
    """The process's ``_WORKERS`` worker threads, made on first use."""
    return ThreadPoolExecutor(max_workers=_WORKERS, thread_name_prefix="sceneact-worker")


def map_on_pool(fn, jobs) -> list:
    """``[fn(*job) for job in jobs]`` on ``_window_pool()``; ``fn`` must not submit to it.

    The calling thread draws the jobs from the iterable one at a time and keeps at
    most ``4 * _WORKERS`` of them submitted but unfinished, so a lazy iterable holds
    only that many jobs' inputs (grids) in memory, however many it yields. At the
    bound it sleeps until the oldest half has finished, so it wakes, and takes the
    interpreter lock from the workers, once per ``2 * _WORKERS`` jobs, not per job.
    Once a job is seen to have raised, no further job is submitted. Every submitted
    call ends, also when the iterable raises, before the first error in job order is
    re-raised.
    """
    futures, running = [], []  # running: submitted, not seen done, in job order
    try:
        for job in jobs:
            if len(running) == 4 * _WORKERS:
                wait(running[:2 * _WORKERS])
            done = [f for f in running if f.done()]
            if any(f.exception() for f in done):
                break
            running = [f for f in running if f not in done]
            futures.append(_window_pool().submit(fn, *job))
            running.append(futures[-1])
    finally:
        wait(running)  # no_grad is process-wide: no job may outlive its caller's
    return [f.result() for f in futures]


def stack_runs(n: int) -> list[np.ndarray]:
    """Contiguous index runs cutting n forwards or clips into one stack per pool job: the
    fewest runs, a multiple of the worker count, of at most ``STACK_MAX`` items, at most one
    per item (on 2 workers: 13 items give 3, 2, 2, 2, 2, 2; 4 give 2, 2; 3 give 2, 1)."""
    runs = _WORKERS * math.ceil(n / (STACK_MAX * _WORKERS))
    return np.array_split(np.arange(n), min(n, runs)) if n else []


def action_scores(params: mdl.ModelParams, cfg: mdl.ModelConfig, proposals, grid) -> np.ndarray:
    """Post-sigmoid scores of one proposal set on one grid, (num_classes, K), or of B
    proposal sets on a (B, C', N) grid stack (None for ``actor_only``), (B, num_classes, K)."""
    logits = mdl.forward_actions(params, cfg, proposals, grid, RngStream(0), training=False)
    return ad._sigmoid(logits.data)


def score_pass(params: mdl.ModelParams, cfg: mdl.ModelConfig, n: int, forwards) -> np.ndarray:
    """(n, num_classes, K) scores of n ``(proposals, grid)`` forwards of one K (grid None
    for ``actor_only``), each its own ``action_scores`` bit for bit, in one ``map_on_pool``
    pass whose ``stack_runs(n)`` stacks span clips; a lazy ``forwards`` builds its grids in
    the calling thread just ahead of the workers."""
    forwards = iter(forwards)

    def stacks():
        for run in stack_runs(n):
            proposals, grids = zip(*itertools.islice(forwards, len(run)))
            yield params, cfg, list(proposals), None if grids[0] is None else np.stack(grids)

    # no_grad is process-wide: entered once here, it covers every worker
    with ad.no_grad():
        scores = map_on_pool(action_scores, stacks())
    return np.concatenate(scores) if scores else np.empty((0, cfg.num_classes, 0))


def run_windowed_clips(params: mdl.ModelParams, cfg: mdl.ModelConfig, clips: list[ClipSample],
                       windowing: WindowingConfig) -> list[WindowedScores]:
    """Inference over every window of every clip; boxes and proposals stay the keyframe's.
    One ``score_pass`` takes the grids, built clip by clip in window order (so are their
    clamp log lines); scores are bit-identical to a serial loop's."""
    offsets = tuple(windowing.offsets)
    scores = score_pass(params, cfg, len(clips) * len(offsets), (
        (clip.proposals, window_grid(clip, interval))
        for clip in clips for _n, interval in windows(windowing, clip.keyframe_time)))
    return [WindowedScores(c, offsets, scores[i * len(offsets):(i + 1) * len(offsets)])
            for i, c in enumerate(clips)]


def run_windowed(
    params: mdl.ModelParams,
    cfg: mdl.ModelConfig,
    clip: ClipSample,
    windowing: WindowingConfig,
) -> WindowedScores:
    """``run_windowed_clips`` on one clip, a pool pass of its own.

    Phase 2 scores all its train clips, then all its eval clips, in one pass each.
    ``cmd_eval`` still calls this once per strategy and clip: the benchmark's
    ``eval_sweep`` check expects one call per strategy per clip.
    """
    return run_windowed_clips(params, cfg, [clip], windowing)[0]


def _strategy_weights(scores: np.ndarray, strategy: str, weights: AggregationWeights | None,
                      k: int) -> np.ndarray:
    """Per-(window, class, proposal) weights realizing each strategy."""
    n_win = scores.shape[0]
    if strategy == "weighted":
        if weights is None:
            raise ContractError("weighted aggregation requires AggregationWeights")
        if weights.weights.shape != (n_win, scores.shape[1]):
            raise ContractError(
                f"weights shape {weights.weights.shape} vs scores {scores.shape[:2]}"
            )
        return np.broadcast_to(weights.weights[:, :, None], scores.shape).copy()
    if strategy == "avg":
        k = n_win
        strategy = "topk"
    if strategy == "max":
        k = 1
        strategy = "topk"
    if strategy != "topk":
        raise ConfigError(f"unknown aggregation strategy {strategy!r}")
    if not 1 <= k <= n_win:
        raise ConfigError(f"topk k must lie in [1, {n_win}], the window count, got {k}")
    # indicator/k on the k largest values per (class, proposal) column
    order = np.argsort(-scores, axis=0, kind="stable")
    w = np.zeros_like(scores)
    np.put_along_axis(w, order[:k], 1.0 / k, axis=0)
    return w


def aggregate(
    windowed: WindowedScores,
    weights: AggregationWeights | None = None,
    strategy: str = "weighted",
    topk: int = 1,
) -> np.ndarray:
    """Fuse per-window scores into one (num_classes, K) score matrix.

    All strategies run through one weighted summation kernel, so avg
    equals topk(num_windows), max equals topk(1), and weighted with
    uniform weights equals avg, exactly.
    """
    scores = windowed.scores
    if scores.shape[0] == 0:
        raise ContractError("cannot aggregate an empty window list")
    w = _strategy_weights(scores, strategy, weights, topk)
    return (w * scores).sum(axis=0)


def aggregation_loss(
    weight_param: ad.Parameter,
    scores: np.ndarray,
    targets: np.ndarray,
    loss_cfg: LossConfig,
) -> ad.Tensor:
    """Mean per-clip focal set loss of the fused scores, differentiable in the weights.

    ``scores`` (windows, clips, K, classes) and ``targets`` (clips, K,
    classes) come from ``precompute_windowed``, already in matched order.
    The fused value sum_n w_n * s_n is a probability, so it is mapped to
    logit space with the clamp of the keyframe matching. The scores are
    constants; gradient flows only into the weight parameter. The graph
    has the same few nodes for any number of clips and windows.
    """
    fused = ad.window_sum(scores, weight_param.value)
    focal = ad.focal_from_logits(ad.logit(fused, _PROB_EPS), targets,
                                 loss_cfg.focal_alpha, loss_cfg.focal_gamma)
    return ad.scale(ad.reduce_sum(focal), 1.0 / scores.shape[1])


def precompute_windowed(
    params: mdl.ModelParams,
    cfg: mdl.ModelConfig,
    clips: list[ClipSample],
    windowing: WindowingConfig,
    loss_cfg: LossConfig,
) -> tuple[np.ndarray, np.ndarray]:
    """Frozen-model pass: stacked window scores and padded truth, in matched order.

    Returns C-contiguous ``scores`` (windows, clips, K, classes), whose
    proposal axis is permuted by each clip's keyframe match so that row i is
    the prediction matched to padded target i, and ``targets`` (clips, K,
    classes), the clips' ``matched_targets`` labels. Each window's block is
    contiguous for ``ad.window_sum``, which reads it twice per fit epoch.
    """
    all_scores, all_targets = [], []
    for ws in run_windowed_clips(params, cfg, clips, windowing):
        sigma, targets = matched_targets(ground_truth_set(ws.clip, len(ws.clip.proposals)),
                                         ws.clip.proposals, loss_cfg)
        # stacked on axis 1, C-contiguous (windows, K, classes) blocks lie window-major
        all_scores.append(np.ascontiguousarray(ws.scores[:, :, list(sigma)].transpose(0, 2, 1)))
        all_targets.append(targets)
    return np.stack(all_scores, axis=1), np.stack(all_targets)


def train_aggregation(
    params: mdl.ModelParams,
    cfg: mdl.ModelConfig,
    clips: list[ClipSample],
    windowing: WindowingConfig,
    loss_cfg: LossConfig,
    lr: float = 1e-2,
    epochs: int = 150,
) -> AggregationWeights:
    """Fit aggregation weights with the relation model frozen.

    The fit starts from ``AggregationWeights.initial`` (exactly the
    short-term model), and after each optimizer step the weights are
    projected onto w >= 0. The model parameters are hashed before and
    after; any drift is a contract violation. Window scores and matches
    are precomputed once, since the frozen model makes them constants;
    each epoch then builds one ``aggregation_loss`` expression over all
    clips and takes one full-batch AdamW step.
    """
    from .checkpoint import params_hash
    from .training import AdamW

    before = params_hash({p.name: p.value.data for p in params.parameters()})
    scores, targets = precompute_windowed(params, cfg, clips, windowing, loss_cfg)
    init = AggregationWeights.initial(windowing, cfg.num_classes)
    weight_param = ad.Parameter("aggregation.weights", init.weights)
    opt = AdamW([weight_param], lr=lr)
    for _epoch in range(epochs):
        weight_param.zero_grad()
        ad.backward(aggregation_loss(weight_param, scores, targets, loss_cfg))
        opt.step()
        weight_param.assign(np.maximum(weight_param.value.data, 0.0))
    after = params_hash({p.name: p.value.data for p in params.parameters()})
    if before != after:
        raise ContractError("relation model parameters changed during aggregation training")
    return AggregationWeights(windowing, weight_param.value.data.copy())
