"""Span recording around sceneact's public functions, from outside the program.

``patch_everywhere`` rebinds a function in every loaded ``sceneact`` module
that holds it (modules import names such as ``run_windowed`` into their
own namespace, so patching the defining module alone would miss calls).
``Tracer`` uses it to wrap each layer boundary listed in ``LAYER_FUNCTIONS``
and keeps one span per call in memory: name, start, end and parent. Self
time (a span's duration minus the time its child spans cover) and call
counts are accumulated as spans close; ``per_layer`` folds them into the
metric names the benchmark reports.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from array import array
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np


def patch_everywhere(owner, attr: str, make_wrapper) -> list:
    """Replace ``owner.attr`` and every sceneact module alias of it.

    Returns the (object, name, original) triples needed to undo the patch.
    ``owner`` is a module or a class; a class attribute has no aliases.
    """
    original = getattr(owner, attr)
    wrapper = make_wrapper(original)
    undo = []
    if isinstance(owner, type):
        targets = [owner]
    else:
        targets = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "sceneact" or name.startswith("sceneact."))]
    for obj in targets:
        for name, value in list(vars(obj).items()):
            if value is original:
                setattr(obj, name, wrapper)
                undo.append((obj, name, original))
    return undo


def unpatch(undo: list):
    for obj, name, original in reversed(undo):
        setattr(obj, name, original)


# Span name -> (module, attribute path). The span name is the layer
# (sceneact module) followed by the function.
LAYER_FUNCTIONS = {
    "synthdata.generate_dataset": ("sceneact.synthdata", "generate_dataset"),
    "synthdata.keyframe_grid": ("sceneact.synthdata", "keyframe_grid"),
    "synthdata.window_grid": ("sceneact.synthdata", "window_grid"),
    "model.forward_actions": ("sceneact.model", "forward_actions"),
    "model.embed_actors": ("sceneact.model", "embed_actors"),
    "model.embed_scene": ("sceneact.model", "embed_scene"),
    "model.encode": ("sceneact.model", "encode"),
    "model.encode_variant": ("sceneact.model", "encode_variant"),
    "model.classify": ("sceneact.model", "classify"),
    "autodiff.backward": ("sceneact.autodiff", "backward"),
    "autodiff.matmul": ("sceneact.autodiff", "matmul"),
    "autodiff.softmax": ("sceneact.autodiff", "softmax"),
    "autodiff.dropout": ("sceneact.autodiff", "dropout"),
    "autodiff.layer_norm": ("sceneact.autodiff", "layer_norm"),
    "autodiff.gelu": ("sceneact.autodiff", "gelu"),
    "autodiff.narrow": ("sceneact.autodiff", "narrow"),
    "autodiff.transpose": ("sceneact.autodiff", "transpose"),
    "autodiff.concat": ("sceneact.autodiff", "concat"),
    "autodiff.reshape": ("sceneact.autodiff", "reshape"),
    "autodiff.add": ("sceneact.autodiff", "add"),
    "autodiff.add_rowvec": ("sceneact.autodiff", "add_rowvec"),
    "autodiff.mul_rowvec": ("sceneact.autodiff", "mul_rowvec"),
    "autodiff.scale": ("sceneact.autodiff", "scale"),
    "rng.RngStream.generator": ("sceneact.rng", "RngStream.generator"),
    "matching.match": ("sceneact.matching", "match"),
    "matching.hungarian": ("sceneact.matching", "hungarian"),
    "matching.set_loss": ("sceneact.matching", "set_loss"),
    "boxes.iou": ("sceneact.boxes", "iou"),
    "boxes.giou": ("sceneact.boxes", "giou"),
    "boxes.box_l1": ("sceneact.boxes", "box_l1"),
    "longterm.run_windowed": ("sceneact.longterm", "run_windowed"),
    "longterm.aggregate": ("sceneact.longterm", "aggregate"),
    "longterm.precompute_windowed": ("sceneact.longterm", "precompute_windowed"),
    "longterm.aggregation_loss": ("sceneact.longterm", "aggregation_loss"),
    "training.AdamW.step": ("sceneact.training", "AdamW.step"),
    "training.clip_gradients": ("sceneact.training", "clip_gradients"),
    "training.evaluate_short_term": ("sceneact.training", "evaluate_short_term"),
    "training.save_train_state": ("sceneact.training", "save_train_state"),
    "evaluation.evaluate": ("sceneact.evaluation", "evaluate"),
    "evaluation.write_report": ("sceneact.evaluation", "write_report"),
    "checkpoint.load_checkpoint": ("sceneact.checkpoint", "load_checkpoint"),
    "cli.main": ("sceneact.cli", "main"),
}

OP_KINDS = {
    "autodiff.matmul_s": ("matmul",),
    "autodiff.softmax_s": ("softmax",),
    "autodiff.dropout_s": ("dropout",),
    "autodiff.layer_norm_s": ("layer_norm",),
    "autodiff.gelu_s": ("gelu",),
    "autodiff.shape_ops_s": ("narrow", "transpose", "concat", "reshape"),
    "autodiff.elementwise_s": ("add", "add_rowvec", "mul_rowvec", "scale"),
}

# Per-layer metric -> span names whose self times it sums.
SELF_TIME = {
    "synthdata.generate_s": ["synthdata.generate_dataset"],
    "synthdata.grid_s": ["synthdata.keyframe_grid", "synthdata.window_grid"],
    "model.forward_s": ["model.forward_actions"],
    "model.embed_s": ["model.embed_actors", "model.embed_scene"],
    "model.encode_s": ["model.encode", "model.encode_variant"],
    "model.classify_s": ["model.classify"],
    "autodiff.backward_s": ["autodiff.backward"],
    **{metric: [f"autodiff.{op}" for op in ops] for metric, ops in OP_KINDS.items()},
    "rng.generator_s": ["rng.RngStream.generator"],
    "matching.match_s": ["matching.match"],
    "matching.hungarian_s": ["matching.hungarian"],
    "matching.set_loss_s": ["matching.set_loss"],
    "boxes.s": ["boxes.iou", "boxes.giou", "boxes.box_l1"],
    "longterm.run_windowed_s": ["longterm.run_windowed"],
    "longterm.aggregate_s": ["longterm.aggregate"],
    "longterm.precompute_s": ["longterm.precompute_windowed"],
    "longterm.fit_loss_s": ["longterm.aggregation_loss"],
    "training.optimizer_step_s": ["training.AdamW.step"],
    "training.clip_gradients_s": ["training.clip_gradients"],
    "training.eval_pass_s": ["training.evaluate_short_term"],
    "training.checkpoint_save_s": ["training.save_train_state"],
    "evaluation.evaluate_s": ["evaluation.evaluate"],
    "evaluation.write_report_s": ["evaluation.write_report"],
    "checkpoint.load_s": ["checkpoint.load_checkpoint"],
    "cli.main_s": ["cli.main"],
}

# Per-layer metric -> span names whose inclusive durations it sums.
TOTAL_TIME = {
    "model.forward_total_s": ["model.forward_actions"],
    "model.encode_total_s": ["model.encode", "model.encode_variant"],
}

CALLS = {
    "synthdata.grid_calls": ["synthdata.window_grid"],  # every grid is built here
    "model.forward_calls": ["model.forward_actions"],
    "autodiff.backward_calls": ["autodiff.backward"],
    "autodiff.op_calls": [f"autodiff.{op}" for ops in OP_KINDS.values() for op in ops],
    "rng.generator_calls": ["rng.RngStream.generator"],
    "matching.match_calls": ["matching.match"],
    "boxes.calls": ["boxes.iou", "boxes.giou", "boxes.box_l1"],
}

PER_LAYER_UNITS = {
    **{m: "s" for m in SELF_TIME},
    **{m: "s" for m in TOTAL_TIME},
    **{m: "count" for m in CALLS},
    "autodiff.nodes_per_backward": "count",
    "longterm.windows": "count",
    "longterm.distinct_window_frac": "frac",
    "evaluation.detections": "count",
    "tracing.items_per_s_delta": "1/s",
}


def graph_size(root) -> int:
    """Nodes reachable from ``root`` through recorded parents."""
    seen = {id(root)}
    stack = [root]
    while stack:
        for parent in stack.pop()._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


class Tracer:
    """In-memory spans over the functions in ``LAYER_FUNCTIONS``.

    Use as a context manager: entering installs the wrappers, leaving
    removes them. Counter hooks run outside any span's timed interval and
    their time is charged to the enclosing span as child time, so it never
    inflates a layer's self time.
    """

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self.windows: set = set()
        self._stack: list[list] = []  # [span index, child seconds]
        self._undo: list = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _enter(self, name_id: int) -> list:
        idx = len(self.span_start)
        self.span_name.append(name_id)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        frame = [idx, 0.0]
        self._stack.append(frame)
        self.span_start[idx] = time.perf_counter()  # last, so bookkeeping is untimed
        return frame

    def _exit(self, frame: list, name: str):
        end = time.perf_counter()
        idx, child = frame
        self.span_end[idx] = end
        self._stack.pop()
        dur = end - self.span_start[idx]
        self.self_s[name] += dur - child
        self.total_s[name] += dur
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][1] += dur

    def _charge_hook(self, started: float):
        if self._stack:
            self._stack[-1][1] += time.perf_counter() - started

    @contextlib.contextmanager
    def span(self, name: str):
        """A span the benchmark itself opens, such as one timed round."""
        frame = self._enter(self._id(name))
        try:
            yield
        finally:
            self._exit(frame, name)

    def _count_nodes(self, args):
        self.counts["autodiff.nodes"] += graph_size(args[0])

    def _count_detections(self, args):
        self.counts["evaluation.detections"] += len(args[0])

    def _count_windows(self, ws):
        self.counts["longterm.windows"] += ws.scores.shape[0]
        self.windows.update((ws.clip.clip_id, off) for off in ws.offsets)

    # Counter hooks: span name -> method called with the args (before) or result (after).
    BEFORE = {"autodiff.backward": _count_nodes, "evaluation.evaluate": _count_detections}
    AFTER = {"longterm.run_windowed": _count_windows}

    def _make_wrapper(self, name: str):
        name_id = self._id(name)
        before = self.BEFORE.get(name)
        after = self.AFTER.get(name)
        tracer = self

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if before is not None:
                    t = time.perf_counter()
                    before(tracer, args)
                    tracer._charge_hook(t)
                frame = tracer._enter(name_id)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer._exit(frame, name)
                if after is not None:
                    t = time.perf_counter()
                    after(tracer, result)
                    tracer._charge_hook(t)
                return result

            return wrapper

        return make

    def __enter__(self):
        for name, (module_name, path) in LAYER_FUNCTIONS.items():
            owner = sys.modules[module_name]
            *cls, attr = path.split(".")
            if cls:
                owner = getattr(owner, cls[0])
            self._undo += patch_everywhere(owner, attr, self._make_wrapper(name))
        return self

    def __exit__(self, *exc):
        unpatch(self._undo)
        self._undo = []
        return False

    def per_layer(self) -> dict[str, float]:
        out = {}
        for metric, names in SELF_TIME.items():
            out[metric] = sum(self.self_s[n] for n in names)
        for metric, names in TOTAL_TIME.items():
            out[metric] = sum(self.total_s[n] for n in names)
        for metric, names in CALLS.items():
            out[metric] = sum(self.calls[n] for n in names)
        backwards = self.calls["autodiff.backward"]
        out["autodiff.nodes_per_backward"] = (
            self.counts["autodiff.nodes"] / backwards if backwards else 0.0
        )
        windows = self.counts["longterm.windows"]
        out["longterm.windows"] = windows
        out["longterm.distinct_window_frac"] = len(self.windows) / windows if windows else 0.0
        out["evaluation.detections"] = self.counts["evaluation.detections"]
        return out

    def write(self, path: Path):
        """Write every span (name, start, end, parent index) as one .npz file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as fh:
            np.savez(
                fh,
                names=np.array(self.names),
                name=np.frombuffer(self.span_name, dtype=np.int32),
                parent=np.frombuffer(self.span_parent, dtype=np.int32),
                start=np.frombuffer(self.span_start, dtype=np.float64),
                end=np.frombuffer(self.span_end, dtype=np.float64),
            )
