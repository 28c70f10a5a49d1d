"""sceneact benchmark: one workload, one seed, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload train_phase1 --seed 7 --seconds 15 --trace 0

Run from the repository root; the program is imported from ``src/``.
With ``--trace 0`` the workload runs the number of whole timed rounds that
best fills ``--seconds`` (judged by the first round; at least
``Scale.min_units`` repeated units are timed), sets up
``Scale.setup_repeats`` times between them, and prints the end-to-end
metrics. With ``--trace 1`` it sets up once, runs one
untraced and one traced round, and prints the per-layer metrics plus the
tracing overhead. The last line of standard output is the result JSON;
the line before it records the environment. Work files go under
``.perfbench/`` in the current directory and are removed at exit, except
the span dump of a traced run and the per-seed mAP record that lets a
later run at the same seed check that it reproduces the same mAP.

BLAS threads are pinned to 1 (never more than ``nproc``): the matrices
here are small, and one thread per process keeps run-to-run spread low.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("train_phase1", "eval_sweep", "phase2_fit")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
PINNED_BLAS_THREADS = 1
MEASURE_CAP_S = 120.0  # stop starting rounds after this, so a run ends well within 180 s


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--scale", default="full", choices=("full", "smoke"),
                        help="input sizes; smoke only exercises the harness")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def source_digest() -> str:
    """Digest of the program and benchmark sources (the checkout need not be a git repo)."""
    digest = hashlib.sha256()
    for path in sorted([*(ROOT / "src").rglob("*.py"), *HERE.rglob("*.py")]):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_threads() -> int | None:
    """Thread count OpenBLAS reports in this process, if it is OpenBLAS."""
    import ctypes

    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib_path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(lib_path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def environment(args, digest: str) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (KeyError, TypeError):
        blas = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": _blas_threads(),
        "blas_threads_pinned_to": PINNED_BLAS_THREADS,
        "thread_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "git_commit": _git_commit(),
        "source_digest": digest,
        "workload": args.workload,
        "seed": args.seed,
        "scale": args.scale,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def measure(workload, seconds: float, min_units: int, repeats: int) -> tuple[list, list]:
    """Set-ups and whole rounds, as many rounds as fit ``seconds`` best.

    The round count is judged by the first round, and rounds continue
    until min_units are timed. The ``repeats`` set-ups are spread between
    the rounds (any left over follow the last), so their median samples
    the machine at several moments of the run. Returns (set-ups, rounds).
    """
    start = time.perf_counter()
    setups, rounds = [], []
    while True:
        if len(setups) < repeats:
            setups.append(workload.setup(len(setups)))
        rounds.append(workload.run_round(len(rounds)))
        target = max(1, round(seconds / rounds[0].seconds))
        enough = len(rounds) >= target and sum(len(r.units) for r in rounds) >= min_units
        if enough or time.perf_counter() - start > MEASURE_CAP_S:
            break
    while len(setups) < repeats:
        setups.append(workload.setup(len(setups)))
    return setups, rounds


def check_map(rounds: list, record: Path):
    """Every round, and every earlier run at this seed and source, must give one mAP."""
    ref = rounds[0].map
    for r in rounds[1:]:
        if r.map != ref:
            r.fail(r.items, f"mAP {r.map!r} differs from round 0 ({ref!r})")
    if any(r.failed for r in rounds) or not math.isfinite(ref):
        return
    if record.exists():
        earlier = json.loads(record.read_text())["map"]
        if earlier != ref:
            for r in rounds:
                r.fail(r.items, f"mAP {ref!r} differs from an earlier run at this seed "
                                f"({earlier!r})")
    else:
        record.parent.mkdir(parents=True, exist_ok=True)
        tmp = record.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps({"map": ref}))
        os.replace(tmp, record)


def _metric(value, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def tally(rounds: list, problems: list[str]) -> tuple[int, int]:
    """(items attempted, items failed); a run-level problem fails every item."""
    attempted = sum(r.items for r in rounds)
    return attempted, attempted if problems else sum(r.failed for r in rounds)


def run_untraced(workload, scale, args, record: Path) -> tuple[dict, list, list[str]]:
    import numpy as np

    setups, rounds = measure(workload, args.seconds, scale.min_units, scale.setup_repeats)
    problems = []
    if len({digest for _, digest in setups}) != 1:
        problems.append("set-up repeats produced different checkpoints")
    check_map(rounds, record)
    units_ms = [u * 1000.0 for r in rounds for u in r.units]
    p50, p90 = np.percentile(units_ms, [50, 90]) if units_ms else (math.nan, math.nan)
    attempted, failed = tally(rounds, problems)
    metrics = {
        "setup_s": _metric(statistics.median(s for s, _ in setups), "s"),
        "items_per_s": _metric(attempted / sum(r.seconds for r in rounds), "1/s"),
        "step_ms.p50": _metric(p50, "ms"),
        "step_ms.p90": _metric(p90, "ms"),
        "map": _metric(rounds[0].map, "frac"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ok_frac": _metric(1.0 - failed / attempted, "frac"),
    }
    return metrics, rounds, problems


def run_traced(workload, args, record: Path, spans_path: Path) -> tuple[dict, list, list[str]]:
    from spans import PER_LAYER_UNITS, Tracer

    tracer = Tracer()
    workload.setup(0, tracer)
    untraced = workload.run_round(0)
    traced = workload.run_round(1, tracer)
    rounds = [untraced, traced]
    check_map(rounds, record)
    values = tracer.per_layer()
    values["tracing.items_per_s_delta"] = (traced.items / traced.seconds
                                           - untraced.items / untraced.seconds)
    tracer.write(spans_path)
    metrics = {name: _metric(values[name], unit) for name, unit in PER_LAYER_UNITS.items()}
    return metrics, rounds, []


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in BLAS_THREAD_VARS:  # before numpy loads BLAS
        os.environ[var] = str(PINNED_BLAS_THREADS)
    if not (ROOT / "src" / "sceneact" / "__init__.py").is_file():
        print(f"error: no sceneact sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import SCALES, WORKLOADS as CLASSES

    digest = source_digest()
    env = environment(args, digest)
    out_root = Path.cwd() / ".perfbench"
    workdir = out_root / f"work-{args.workload}-{os.getpid()}"
    record = out_root / "maps" / f"{args.workload}-{args.scale}-seed{args.seed}-{digest[:16]}.json"
    scale = SCALES[args.scale]
    workload = CLASSES[args.workload](args.seed, scale, workdir)
    try:
        if args.trace:
            spans_path = out_root / "spans" / f"{args.workload}-{args.scale}-seed{args.seed}.npz"
            metrics, rounds, problems = run_traced(workload, args, record, spans_path)
        else:
            metrics, rounds, problems = run_untraced(workload, scale, args, record)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted, failed = tally(rounds, problems)
    problems += [p for r in rounds for p in r.problems]
    for name, metric in metrics.items():
        if not math.isfinite(metric["value"]):
            problems.append(f"metric {name} is not finite")
            metric["value"] = 0.0
    result = {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    details = {"env": env, "result": result, "problems": problems,
               "rounds": [{"items": r.items, "failed": r.failed, "seconds": r.seconds,
                           "units": len(r.units), "map": r.map} for r in rounds]}
    results_dir = out_root / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}.json") \
        .write_text(json.dumps(details, indent=1) + "\n")
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
