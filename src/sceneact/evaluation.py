"""Frame-level detection evaluation: per-class AP and mean AP at the IoU gate.

Detections are ranked by score (ties keep insertion order) and greedily
matched, within their clip, to the unmatched ground-truth box of highest
IoU at or above ``IOU_THRESHOLD``, the paper's frame-mAP gate. AP is the
area under the precision-recall curve with precision made non-increasing
from the right (all-point interpolation). Classes without any ground
truth are excluded from the mean rather than scored zero.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .boxes import BoundingBox, iou
from .errors import ValidationError

IOU_THRESHOLD = 0.5  # a detection matches a ground-truth box at this IoU or above


@dataclass(frozen=True)
class Detection:
    clip_id: str
    box: BoundingBox
    class_id: int
    score: float


@dataclass(frozen=True)
class GroundTruthBox:
    clip_id: str
    box: BoundingBox
    class_id: int


@dataclass
class EvalReport:
    per_class_ap: dict[int, float | None]  # None when the class has no ground truth
    mean_ap: float
    category_means: dict[str, float]
    num_gt: int
    num_detections: int
    class_names: dict[int, str]
    class_categories: dict[int, str]
    per_class_gt: dict[int, int]
    per_class_det: dict[int, int]

    def summary(self) -> str:
        lines = [f"mAP@0.5 {self.mean_ap:.4f}  (gt {self.num_gt}, detections {self.num_detections})"]
        for cat in sorted(self.category_means):
            lines.append(f"  {cat}: {self.category_means[cat]:.4f}")
        for k in sorted(self.per_class_ap):
            ap = self.per_class_ap[k]
            shown = "excluded (no gt)" if ap is None else f"{ap:.4f}"
            lines.append(f"  class {k:3d} {self.class_names.get(k, '?'):>10s}  {shown}")
        return "\n".join(lines)


def average_precision(dets: list[Detection], gts: list[GroundTruthBox]) -> float:
    """All-point interpolated AP for a single class."""
    if not gts:
        raise ValidationError("average_precision needs at least one ground-truth box")
    if not dets:
        return 0.0
    gt_by_clip: dict[str, list] = {}
    for g in gts:
        gt_by_clip.setdefault(g.clip_id, []).append(g.box)
    used = {clip: [False] * len(boxes) for clip, boxes in gt_by_clip.items()}

    order = sorted(range(len(dets)), key=lambda i: (-dets[i].score, i))
    tp = np.zeros(len(dets))
    for rank, i in enumerate(order):
        det = dets[i]
        boxes = gt_by_clip.get(det.clip_id, [])
        best_iou, best_j = 0.0, -1
        for j, gbox in enumerate(boxes):
            if used[det.clip_id][j]:
                continue
            overlap = iou(det.box, gbox)
            if overlap >= IOU_THRESHOLD and overlap > best_iou:
                best_iou, best_j = overlap, j
        if best_j >= 0:
            used[det.clip_id][best_j] = True
            tp[rank] = 1.0

    cum_tp = np.cumsum(tp)
    cum_fp = np.cumsum(1.0 - tp)
    recall = cum_tp / len(gts)
    precision = cum_tp / (cum_tp + cum_fp)

    mrec = np.concatenate([[0.0], recall, [1.0]])
    mpre = np.concatenate([[0.0], precision, [0.0]])
    for i in range(len(mpre) - 2, -1, -1):
        mpre[i] = max(mpre[i], mpre[i + 1])
    steps = np.flatnonzero(mrec[1:] != mrec[:-1]) + 1
    return float(np.sum((mrec[steps] - mrec[steps - 1]) * mpre[steps]))


def evaluate(
    detections: list[Detection],
    ground_truth: list[GroundTruthBox],
    categories: dict[int, str],
    class_names: dict[int, str] | None = None,
) -> EvalReport:
    """Per-class AP, mean AP, and per-category means."""
    for d in detections:
        if d.class_id not in categories:
            raise ValidationError(f"unknown class id {d.class_id} in detections")
    for g in ground_truth:
        if g.class_id not in categories:
            raise ValidationError(f"unknown class id {g.class_id} in ground truth")

    dets_by_class: dict[int, list[Detection]] = {k: [] for k in categories}
    gts_by_class: dict[int, list[GroundTruthBox]] = {k: [] for k in categories}
    for d in detections:
        dets_by_class[d.class_id].append(d)
    for g in ground_truth:
        gts_by_class[g.class_id].append(g)

    per_class: dict[int, float | None] = {}
    for k in categories:
        if not gts_by_class[k]:
            per_class[k] = None
            continue
        per_class[k] = average_precision(dets_by_class[k], gts_by_class[k])

    scored = [ap for ap in per_class.values() if ap is not None]
    mean_ap = float(np.mean(scored)) if scored else 0.0
    category_means = {}
    for cat in sorted(set(categories.values())):
        vals = [ap for k, ap in per_class.items() if categories[k] == cat and ap is not None]
        if vals:
            category_means[cat] = float(np.mean(vals))
    return EvalReport(
        per_class_ap=per_class,
        mean_ap=mean_ap,
        category_means=category_means,
        num_gt=len(ground_truth),
        num_detections=len(detections),
        class_names=class_names or {},
        class_categories=dict(categories),
        per_class_gt={k: len(gts_by_class[k]) for k in categories},
        per_class_det={k: len(dets_by_class[k]) for k in categories},
    )


def write_report(report: EvalReport, out_dir, prefix: str = "eval"):
    """Emit the human-readable summary and the per-class CSV."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"{prefix}_summary.txt").write_text(report.summary() + "\n")
    with open(out_dir / f"{prefix}_per_class.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["class_id", "class_name", "category", "ap", "num_gt", "num_det"])
        for k in sorted(report.per_class_ap):
            ap = report.per_class_ap[k]
            writer.writerow(
                [
                    k,
                    report.class_names.get(k, f"class_{k}"),
                    report.class_categories.get(k, "?"),
                    "" if ap is None else f"{ap:.6f}",
                    report.per_class_gt.get(k, 0),
                    report.per_class_det.get(k, 0),
                ]
            )
