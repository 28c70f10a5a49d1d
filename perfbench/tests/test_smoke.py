"""Tiny-scale smoke test of the benchmark harness.

Runs every workload at ``--scale smoke`` for a few items, untraced and
traced, and checks that each prints exactly the metrics BENCHMARK.json
declares, each with its declared unit, and passes its own output checks.

    python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())

# The names the benchmark promises; BENCHMARK.json must declare them all.
END_TO_END = {"setup_s", "items_per_s", "step_ms.p50", "step_ms.p90", "map",
              "peak_rss_mb", "ok_frac"}
PER_LAYER = {
    "synthdata.generate_s", "synthdata.grid_s", "synthdata.grid_calls",
    "model.forward_s", "model.forward_calls", "model.embed_s", "model.encode_s",
    "model.classify_s", "autodiff.backward_s", "autodiff.backward_calls",
    "autodiff.nodes_per_backward", "autodiff.matmul_s", "autodiff.softmax_s",
    "autodiff.dropout_s", "autodiff.layer_norm_s", "autodiff.gelu_s",
    "autodiff.shape_ops_s", "autodiff.elementwise_s", "autodiff.op_calls",
    "rng.generator_calls", "matching.match_s", "matching.match_calls",
    "matching.hungarian_s", "matching.set_loss_s", "boxes.calls", "boxes.s",
    "longterm.run_windowed_s", "longterm.windows", "longterm.aggregate_s",
    "longterm.precompute_s", "longterm.fit_loss_s", "longterm.distinct_window_frac",
    "training.optimizer_step_s", "training.clip_gradients_s", "training.eval_pass_s",
    "training.checkpoint_save_s", "evaluation.evaluate_s", "evaluation.detections",
    "evaluation.write_report_s", "checkpoint.load_s", "cli.main_s",
    "tracing.items_per_s_delta",
}


def test_benchmark_json_declares_every_promised_metric():
    assert END_TO_END == {m["name"] for m in SPEC["end_to_end"]}
    assert PER_LAYER <= {m["name"] for m in SPEC["per_layer"]}
    assert [w["name"] for w in SPEC["workloads"]] == ["train_phase1", "eval_sweep", "phase2_fit"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["train_phase1", "eval_sweep", "phase2_fit"])
def test_smoke_run_prints_declared_metrics(workload, trace, tmp_path):
    out = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--scale", "smoke"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr[-3000:]
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], out.stderr[-3000:]
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        printed = result["metrics"][m["name"]]
        assert printed["unit"] == m["unit"], m["name"]
        assert math.isfinite(printed["value"]), m["name"]
    env = json.loads(out.stdout.strip().splitlines()[-2].removeprefix("env "))
    assert env["seed"] == 3 and env["blas_threads_pinned_to"] <= env["nproc"]


def test_exits_nonzero_without_program_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in BENCH_DIR.glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "eval_sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0
    assert out.stdout.strip() == ""
