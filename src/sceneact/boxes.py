"""Normalized bounding-box algebra: IoU, generalized IoU, L1 distance.

All boxes live in normalized image coordinates: corners in [0, 1] with
the top-left corner strictly above-left of the bottom-right corner.
Degenerate detector boxes are repaired at ingestion by ``sanitize_box``,
which enforces a minimum side length; downstream formulas then need no
special cases.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ValidationError

MIN_SIDE = 1e-4


@dataclass(frozen=True)
class BoundingBox:
    x_lt: float
    y_lt: float
    x_rb: float
    y_rb: float

    def __post_init__(self):
        if not (0.0 <= self.x_lt < self.x_rb <= 1.0) or not (
            0.0 <= self.y_lt < self.y_rb <= 1.0
        ):
            raise ValidationError(
                f"invalid box corners ({self.x_lt}, {self.y_lt}, {self.x_rb}, {self.y_rb})"
            )

    @property
    def width(self) -> float:
        return self.x_rb - self.x_lt

    @property
    def height(self) -> float:
        return self.y_rb - self.y_lt

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def center(self) -> tuple[float, float]:
        return (0.5 * (self.x_lt + self.x_rb), 0.5 * (self.y_lt + self.y_rb))

    def corners(self) -> tuple[float, float, float, float]:
        return (self.x_lt, self.y_lt, self.x_rb, self.y_rb)


def sanitize_box(x_lt: float, y_lt: float, x_rb: float, y_rb: float) -> BoundingBox:
    """Clamp raw detector corners into [0, 1] and enforce a minimum side."""
    x1, x2 = sorted((min(max(x_lt, 0.0), 1.0), min(max(x_rb, 0.0), 1.0)))
    y1, y2 = sorted((min(max(y_lt, 0.0), 1.0), min(max(y_rb, 0.0), 1.0)))
    if x2 - x1 < MIN_SIDE:
        cx = min(max(0.5 * (x1 + x2), MIN_SIDE / 2), 1.0 - MIN_SIDE / 2)
        x1, x2 = cx - MIN_SIDE / 2, cx + MIN_SIDE / 2
    if y2 - y1 < MIN_SIDE:
        cy = min(max(0.5 * (y1 + y2), MIN_SIDE / 2), 1.0 - MIN_SIDE / 2)
        y1, y2 = cy - MIN_SIDE / 2, cy + MIN_SIDE / 2
    return BoundingBox(x1, y1, x2, y2)


def _intersection(a: BoundingBox, b: BoundingBox) -> float:
    w = min(a.x_rb, b.x_rb) - max(a.x_lt, b.x_lt)
    h = min(a.y_rb, b.y_rb) - max(a.y_lt, b.y_lt)
    if w <= 0.0 or h <= 0.0:
        return 0.0
    return w * h


def iou(a: BoundingBox, b: BoundingBox) -> float:
    """Intersection over union; 0 for disjoint boxes."""
    inter = _intersection(a, b)
    union = a.area + b.area - inter
    return inter / union


def giou(a: BoundingBox, b: BoundingBox) -> float:
    """Generalized IoU: IoU minus the enclosing-box penalty; range (-1, 1]."""
    inter = _intersection(a, b)
    union = a.area + b.area - inter
    enclose = (max(a.x_rb, b.x_rb) - min(a.x_lt, b.x_lt)) * (
        max(a.y_rb, b.y_rb) - min(a.y_lt, b.y_lt)
    )
    return inter / union - (enclose - union) / enclose


def box_l1(a: BoundingBox, b: BoundingBox) -> float:
    """Sum of absolute corner coordinate differences."""
    return (
        abs(a.x_lt - b.x_lt)
        + abs(a.y_lt - b.y_lt)
        + abs(a.x_rb - b.x_rb)
        + abs(a.y_rb - b.y_rb)
    )

