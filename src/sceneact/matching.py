"""Set matching between padded ground truth and the K predictions.

The (K, K) matching cost reads only the detector's outputs: a sigmoid
focal term on each proposal's confidence plus L1 and generalized-IoU box
terms weighted by ``L1_WEIGHT`` and ``GIOU_WEIGHT`` (the DETR weights);
padding targets cost zero against every proposal. scipy's
``linear_sum_assignment`` finds the optimal assignment. The training
loss sums the focal classification loss over matched action label
vectors, where padding targets contribute all-negative labels.

Only action logits carry gradient: the match itself is computed on plain
floats and reads no relation-model output, so it is a constant of the data;
callers compute it once per clip with ``matched_targets``.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from . import autodiff as ad
from .boxes import BoundingBox, box_l1, giou
from .errors import ContractError, ValidationError

log = logging.getLogger(__name__)

L1_WEIGHT = 5.0  # box L1 term of the matching cost
GIOU_WEIGHT = 2.0  # 1 - generalized IoU term of the matching cost

_H_CLIP = 1e-6


@dataclass(frozen=True)
class LossConfig:
    focal_alpha: float = 0.25
    focal_gamma: float = 2.0

    def __post_init__(self):
        if not (0.0 < self.focal_alpha < 1.0):
            raise ValidationError(f"focal_alpha must lie in (0,1), got {self.focal_alpha}")
        if self.focal_gamma < 0.0:
            raise ValidationError(f"focal_gamma must be >= 0, got {self.focal_gamma}")


@dataclass
class GroundTruthSet:
    """Targets padded to K entries; the first ``count`` are real."""

    boxes: list[BoundingBox]
    labels: np.ndarray  # (count, num_classes) 0/1
    total: int  # K

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=np.float64)
        if self.labels.ndim != 2:
            raise ContractError(f"labels must be 2-D (count, classes), got {self.labels.shape}")
        if len(self.boxes) != self.labels.shape[0]:
            raise ContractError("ground truth boxes and labels disagree in length")
        if self.count > self.total:
            raise ContractError(f"{self.count} targets exceed capacity {self.total}")

    @property
    def count(self) -> int:
        return len(self.boxes)

    @classmethod
    def build(cls, boxes, labels, total: int) -> "GroundTruthSet":
        """Pad (or clip by descending box area, with a warning) to ``total``."""
        labels = np.asarray(labels, dtype=np.float64)
        if len(boxes) > total:
            log.warning(
                "clipping %d ground-truth actors to the %d largest", len(boxes), total
            )
            order = sorted(range(len(boxes)), key=lambda i: (-boxes[i].area, i))[:total]
            boxes = [boxes[i] for i in order]
            labels = labels[order]
        return cls(list(boxes), labels, total)


@dataclass(frozen=True)
class MatchResult:
    sigma: tuple  # sigma[i] = prediction index assigned to target i
    total_cost: float


def cost_matrix(gts: GroundTruthSet, proposals, cfg: LossConfig) -> np.ndarray:
    """(K, K) matching cost of each padded target against each proposal.

    Real rows add L1 and generalized-IoU box terms to a sigmoid focal term
    on the proposal's detector confidence; padding rows are zero. The
    confidence enters as a logit (inverse sigmoid of the clamped
    probability), so the focal formula is the one the set loss uses.
    """
    k, n = gts.total, gts.count
    if len(proposals) != k:
        raise ContractError(f"proposal count {len(proposals)} differs from target capacity {k}")
    cost = np.zeros((k, k))
    for i, gt in enumerate(gts.boxes):
        for j, prop in enumerate(proposals):
            box = prop.box
            cost[i, j] = L1_WEIGHT * box_l1(gt, box) + GIOU_WEIGHT * (1.0 - giou(gt, box))
    confidence = ad._logit(np.array([p.person_score for p in proposals]), _H_CLIP)[0]
    cost[:n] += ad._focal(confidence, 1.0, cfg.focal_alpha, cfg.focal_gamma)[0]
    return cost


def hungarian(cost: np.ndarray) -> MatchResult:
    """Minimum-cost perfect assignment on a square matrix of finite entries."""
    cost = np.asarray(cost, dtype=np.float64)
    if cost.ndim != 2 or cost.shape[0] != cost.shape[1]:
        raise ContractError(f"cost matrix must be square, got {cost.shape}")
    if not np.all(np.isfinite(cost)):
        raise ContractError("cost matrix contains non-finite entries")
    rows, cols = linear_sum_assignment(cost)
    return MatchResult(tuple(int(j) for j in cols), float(cost[rows, cols].sum()))


def match(gts: GroundTruthSet, proposals, cfg: LossConfig) -> MatchResult:
    """Assign each padded target a distinct one of the K proposals at
    minimum cost. Padding rows are all-zero, so the reported total equals
    the cost over real targets.
    """
    return hungarian(cost_matrix(gts, proposals, cfg))


def matched_targets(gts: GroundTruthSet, proposals, cfg: LossConfig) -> tuple[tuple, np.ndarray]:
    """A clip's training target: the match ``sigma`` and the (K, num_classes)
    0/1 labels of the padded targets, all zero on padding rows.
    """
    targets = np.zeros((gts.total, gts.labels.shape[1]))
    targets[: gts.count] = gts.labels
    return match(gts, proposals, cfg).sigma, targets


def set_loss(logits: ad.Tensor, sigma, targets: np.ndarray, cfg: LossConfig) -> ad.Tensor:
    """Focal classification loss over matched targets, as a tape scalar.

    ``logits`` is (num_classes, K); ``sigma`` and the (K, num_classes)
    ``targets`` come from ``matched_targets``. B clips' stacked logits, sigmas
    and targets give their B losses, each its own call's bit for bit.
    """
    if targets.shape != (*logits.shape[:-2], logits.shape[-1], logits.shape[-2]):
        raise ContractError(f"logits {logits.shape} do not fit targets {targets.shape}")
    rows = ad.transpose(logits)  # (K, num_classes), per clip
    ordered = ad.gather_rows(rows, sigma)  # row i = prediction sigma(i)
    focal = ad.focal_from_logits(ordered, targets, cfg.focal_alpha, cfg.focal_gamma)
    return ad.reduce_sum(focal, axis=(1, 2) if logits.data.ndim == 3 else None)
