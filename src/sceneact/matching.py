"""Set matching between padded ground truth and the K predictions.

The (K, K) matching cost combines a sigmoid focal term on the detector
confidence (and, by ``cost_mode``, on the action logits) with L1 and
generalized-IoU box terms; padding targets cost zero against every
prediction. scipy's ``linear_sum_assignment`` finds the optimal
assignment. The training loss sums the focal classification loss over
matched action label vectors, where padding targets contribute
all-negative labels.

Only action logits carry gradient: the match itself is computed on plain
floats and is a constant with respect to differentiation.
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

COST_MODES = ("person", "action", "both")

_H_CLIP = 1e-6


@dataclass(frozen=True)
class LossConfig:
    focal_alpha: float = 0.25
    focal_gamma: float = 2.0
    lambda_l1: float = 5.0
    lambda_giou: float = 2.0
    cost_mode: str = "person"

    def __post_init__(self):
        if not (0.0 < self.focal_alpha < 1.0):
            raise ValidationError(f"focal_alpha must lie in (0,1), got {self.focal_alpha}")
        if self.focal_gamma < 0.0:
            raise ValidationError(f"focal_gamma must be >= 0, got {self.focal_gamma}")
        if self.lambda_l1 < 0.0 or self.lambda_giou < 0.0:
            raise ValidationError("lambda weights must be nonnegative")
        if self.cost_mode not in COST_MODES:
            raise ValidationError(f"cost_mode must be one of {COST_MODES}")


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


def cost_matrix(gts: GroundTruthSet, preds, cfg: LossConfig) -> np.ndarray:
    """(K, K) matching cost of each padded target against each prediction.

    Real rows add L1 and generalized-IoU box terms to sigmoid focal terms;
    padding rows are zero. The detector confidence enters the focal term
    as a logit (inverse sigmoid of the clamped probability), so the focal
    formula is the one the set loss uses.
    """
    k, n = gts.total, gts.count
    if len(preds.boxes) != k:
        raise ContractError(
            f"prediction count {len(preds.boxes)} differs from target capacity {k}"
        )
    cost = np.zeros((k, k))
    for i, gt in enumerate(gts.boxes):
        for j, box in enumerate(preds.boxes):
            cost[i, j] = cfg.lambda_l1 * box_l1(gt, box) + cfg.lambda_giou * (1.0 - giou(gt, box))
    alpha, gamma = cfg.focal_alpha, cfg.focal_gamma
    if cfg.cost_mode in ("person", "both"):
        h = np.clip(preds.person_scores, _H_CLIP, 1.0 - _H_CLIP)
        cost[:n] += ad._focal(np.log(h / (1.0 - h)), 1.0, alpha, gamma)[0]
    if cfg.cost_mode in ("action", "both"):
        focal = ad._focal(preds.action_logits[None], gts.labels[:, :, None], alpha, gamma)[0]
        cost[:n] += focal.sum(axis=1)  # (n, num_classes, K) summed over classes
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


def match(gts: GroundTruthSet, preds, cfg: LossConfig) -> MatchResult:
    """Assign each padded target a distinct one of the K predictions
    (a PredictionSet) at minimum cost. Padding rows are all-zero, so the
    reported total equals the cost over real targets.
    """
    return hungarian(cost_matrix(gts, preds, cfg))


def set_loss(gts: GroundTruthSet, logits: ad.Tensor, sigma, cfg: LossConfig) -> ad.Tensor:
    """Focal classification loss over matched targets, as a tape scalar.

    ``logits`` is (num_classes, K). Padding targets contribute all-zero
    label vectors, i.e. pure negatives for every class.
    """
    k = gts.total
    if logits.shape[1] != k:
        raise ContractError(f"logits have {logits.shape[1]} columns, expected {k}")
    rows = ad.transpose(logits)  # (K, num_classes)
    ordered = ad.gather_rows(rows, list(sigma))  # row i = prediction sigma(i)
    targets = np.zeros((k, logits.shape[0]))
    targets[: gts.count] = gts.labels
    return ad.reduce_sum(ad.focal_from_logits(ordered, targets, cfg.focal_alpha, cfg.focal_gamma))
