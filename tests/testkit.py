"""Test oracles that the program itself never runs.

``grad_check`` compares tape gradients against central differences;
``zero_residual_projections`` turns every relation stack into an exact
identity; ``read_annotations`` parses the ground-truth CSVs that
``sceneact generate`` writes; ``oracle_scene_detections`` and
``appearance_knn_detections`` are the non-learned ceiling and floor of
the synthetic world; ``token_index`` locates a grid cell among the
scene tokens. ``masked_sigmoid`` and ``two_softplus_focal`` are the
plain forms that ``autodiff``'s sigmoid and focal loss must equal bit for
bit, and ``float_dropout`` the float-mask dropout that ``autodiff``'s
boolean keep masks must equal bit for bit.
"""

from __future__ import annotations

import csv
import math
from typing import Callable, Iterable

import numpy as np

from sceneact.autodiff import Parameter, Tensor, _wrap, backward
from sceneact.boxes import BoundingBox
from sceneact.errors import ConfigError, ValidationError
from sceneact.model import ModelParams
from sceneact.rng import RngStream
from sceneact.synthdata import (
    CATEGORIES,
    GRID_H,
    GRID_T,
    GRID_W,
    PAIR_DISTANCE_MAX,
    ClipSample,
    ScenarioConfig,
    _cell_of,
    keyframe_grid,
    signature_bank,
)


class ParseError(ValueError):
    """A file could not be parsed; message carries the line number."""


# ---------------------------------------------------------------------------
# elementwise oracles


def masked_sigmoid(z: np.ndarray) -> np.ndarray:
    """1 / (1 + e^-z) on the z >= 0 entries, e^z / (1 + e^z) on the rest."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def two_softplus_focal(x: np.ndarray, t, alpha: float, gamma: float, g: np.ndarray):
    """Sigmoid focal loss with one ``logaddexp`` per softplus term.

    Returns the loss, p, -log p, -log(1-p) and the gradient in x of the
    loss weighted by the upstream gradient ``g``.
    """
    p = masked_sigmoid(x)
    sp_neg = np.logaddexp(0.0, -x)
    sp_pos = np.logaddexp(0.0, x)
    pos = alpha * np.power(1.0 - p, gamma) * sp_neg
    neg = (1.0 - alpha) * np.power(p, gamma) * sp_pos
    dpos = -alpha * np.power(1.0 - p, gamma) * (gamma * p * sp_neg + (1.0 - p))
    dneg = (1.0 - alpha) * np.power(p, gamma) * (gamma * (1.0 - p) * sp_pos + p)
    return t * pos + (1.0 - t) * neg, p, sp_neg, sp_pos, g * (t * dpos + (1.0 - t) * dneg)


def float_dropout_mask(shape: tuple, rate: float, rng) -> np.ndarray:
    """Survivors 1 / (1 - rate), dropped entries 0, from numpy's float draws: one stream,
    or one per clip of a (B, ...) stack, each filling its own clip's slice."""
    if isinstance(rng, RngStream):
        return (rng.generator().random(shape) >= rate) * (1 / (1 - rate))
    return np.stack([float_dropout_mask(shape[1:], rate, r) for r in rng])


def float_dropout(x: Tensor, rate: float, rng, training: bool) -> Tensor:
    """Dropout as x * mask and g * mask with the float mask, one tape node."""
    if not training or rate == 0.0:
        return x
    mask = float_dropout_mask(x.shape, rate, rng)
    return _wrap(x.data * mask, (x,), lambda g: (g * mask,))


# ---------------------------------------------------------------------------
# gradient verification


class GradCheckReport:
    """Per-parameter maximum relative error between tape and central differences."""

    def __init__(self, max_rel_err: dict[str, float], tol: float):
        self.max_rel_err = max_rel_err
        self.tol = tol

    @property
    def failures(self) -> list[str]:
        return [n for n, e in self.max_rel_err.items() if e > self.tol]

    @property
    def passed(self) -> bool:
        return not self.failures

    @property
    def worst(self) -> float:
        return max(self.max_rel_err.values(), default=0.0)

    def __repr__(self):
        return f"GradCheckReport(worst={self.worst:.3e}, failures={self.failures})"


def grad_check(
    f: Callable[[], Tensor],
    params: Iterable[Parameter],
    step: float = 1e-5,
    tol: float = 1e-4,
) -> GradCheckReport:
    """Compare tape gradients of a scalar function against central differences.

    Relative error uses a scale floor of 1e-3 so that finite-difference
    noise on near-zero entries does not register as failure.
    """
    if step <= 0:
        raise ConfigError(f"grad_check step must be positive, got {step}")
    params = list(params)
    for p in params:
        p.zero_grad()
    backward(f())
    analytic = {p.name: p.grad.copy() for p in params}

    report = {}
    for p in params:
        base = p.value.data.copy()
        numeric = np.zeros_like(base)
        flat = base.reshape(-1)
        num_flat = numeric.reshape(-1)
        for i in range(flat.size):
            saved = flat[i]
            flat[i] = saved + step
            p.assign(base)
            f_plus = f().item()
            flat[i] = saved - step
            p.assign(base)
            f_minus = f().item()
            flat[i] = saved
            num_flat[i] = (f_plus - f_minus) / (2.0 * step)
        p.assign(base)
        a = analytic[p.name]
        denom = np.maximum(np.maximum(np.abs(a), np.abs(numeric)), 1e-3)
        report[p.name] = float(np.max(np.abs(a - numeric) / denom)) if a.size else 0.0
    return GradCheckReport(report, tol)


def zero_residual_projections(params: ModelParams):
    """Zero every residual-branch output layer; the stacks become identities."""
    for blk in params.blocks + params.scene_blocks:
        outputs = [p for _, _, attn in blk.attns for p in (attn.wo, attn.bo)]
        for p in outputs + [blk.w2, blk.b2]:
            p.assign(np.zeros(p.shape))


# ---------------------------------------------------------------------------
# ground-truth CSV reader


def read_annotations(path) -> list[tuple]:
    """Parse ground-truth rows (clip_id, timestamp, box, class_id)."""
    out = []
    with open(path, newline="") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if not row:
                continue
            if len(row) != 7:
                raise ParseError(f"{path}:{lineno}: expected 7 fields, got {len(row)}")
            try:
                timestamp = float(row[1])
                coords = [float(v) for v in row[2:6]]
                class_id = int(row[6])
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: {exc}") from exc
            if not all(0.0 <= c <= 1.0 for c in coords):
                raise ValidationError(f"{path}:{lineno}: coordinates outside [0, 1]")
            try:
                box = BoundingBox(*coords)
            except ValidationError as exc:
                raise ValidationError(f"{path}:{lineno}: {exc}") from exc
            out.append((row[0], timestamp, box, class_id))
    return out


# ---------------------------------------------------------------------------
# dataset solvability probes (non-learned)


def token_index(t: int, row: int, col: int) -> int:
    """Column of time sample t, cell (row, col) in a ``window_grid`` token matrix."""
    return (t * GRID_H + row) * GRID_W + col


def oracle_scene_detections(clip: ClipSample, cfg: ScenarioConfig,
                            t_before: float, t_after: float):
    """Score ground-truth boxes by correlating scene tokens with signatures.

    Reads the keyframe window at each actor's own cell (pose and object
    classes) and at midpoints to nearby partners (pair classes). This is
    the non-learned ceiling establishing the dataset is solvable.
    """
    signatures = signature_bank(cfg.seed, cfg.num_classes)
    grid = keyframe_grid(clip, t_before, t_after)
    per = cfg.num_classes // len(CATEGORIES)
    centers = [b.center for b in clip.truth.boxes]
    for i, box in enumerate(clip.truth.boxes):
        own = _cell_of(*centers[i])
        mids = [
            _cell_of(0.5 * (centers[i][0] + centers[j][0]),
                     0.5 * (centers[i][1] + centers[j][1]))
            for j in range(len(centers))
            if j != i and math.dist(centers[i], centers[j]) <= PAIR_DISTANCE_MAX
        ]
        for k in range(cfg.num_classes):
            cells = mids if per <= k < 2 * per else [own]
            best = -np.inf
            for row, col in cells:
                for t in range(GRID_T):
                    token = grid[:, token_index(t, row, col)]
                    best = max(best, float(token @ signatures[k]))
            if best == -np.inf:
                best = 0.0
            yield clip.clip_id, clip.keyframe_time, box, k, best


def appearance_knn_detections(train_clips: list[ClipSample], clip: ClipSample,
                              num_classes: int):
    """Score classes from actor appearance alone (nearest neighbours).

    Appearance carries no action information by construction, so this
    probe bounds how much a scene-blind model could leak.
    """
    bank = np.concatenate([c.truth.appearances for c in train_clips])
    bank_labels = np.concatenate([c.truth.labels for c in train_clips])
    for i, box in enumerate(clip.truth.boxes):
        sims = bank @ clip.truth.appearances[i]
        order = np.argsort(-sims)[:5]
        scores = bank_labels[order].mean(axis=0)
        for k in range(num_classes):
            yield clip.clip_id, clip.keyframe_time, box, k, float(scores[k])
