import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sceneact.boxes import (
    BoundingBox,
    box_l1,
    giou,
    iou,
    sanitize_box,
)
from sceneact.errors import ValidationError


def boxes_strategy():
    coord = st.floats(0.0, 1.0, allow_nan=False)
    side = st.floats(0.01, 0.5)

    @st.composite
    def builder(draw):
        x1 = draw(st.floats(0.0, 0.49))
        y1 = draw(st.floats(0.0, 0.49))
        w = draw(side)
        h = draw(side)
        return BoundingBox(x1, y1, min(x1 + w, 1.0), min(y1 + h, 1.0))

    return builder()


class TestIou:
    def test_identical(self):
        b = BoundingBox(0.2, 0.2, 0.6, 0.7)
        assert iou(b, b) == 1.0

    def test_disjoint(self):
        assert iou(BoundingBox(0, 0, 0.2, 0.2), BoundingBox(0.5, 0.5, 0.9, 0.9)) == 0.0

    def test_half_overlap(self):
        # areas 1 and 0.5, intersection 0.5, union 1
        assert iou(BoundingBox(0, 0, 1, 1), BoundingBox(0, 0, 0.5, 1)) == pytest.approx(0.5)


class TestGiou:
    def test_identical(self):
        b = BoundingBox(0.1, 0.3, 0.5, 0.8)
        assert giou(b, b) == pytest.approx(1.0, abs=1e-15)

    def test_far_corners(self):
        # IoU 0, union 0.02, enclosing box area 1.0
        v = giou(BoundingBox(0, 0, 0.1, 0.1), BoundingBox(0.9, 0.9, 1, 1))
        assert v == pytest.approx(-0.98, abs=1e-12)

    def test_enclosing_equals_union(self):
        # nested along one axis: no penalty, giou = iou
        v = giou(BoundingBox(0, 0, 1, 1), BoundingBox(0, 0, 0.5, 1))
        assert v == pytest.approx(0.5, abs=1e-12)


class TestBoxL1:
    def test_identical_is_zero(self):
        b = BoundingBox(0.2, 0.2, 0.4, 0.4)
        assert box_l1(b, b) == 0.0

    def test_single_coordinate_shift(self):
        a = BoundingBox(0.0, 0.0, 1.0, 1.0)
        b = BoundingBox(0.1, 0.0, 1.0, 1.0)
        assert box_l1(a, b) == pytest.approx(0.1)

    def test_matches_per_coordinate_oracle(self):
        gen = np.random.Generator(np.random.Philox(key=9))
        for _ in range(50):
            c = gen.uniform(0, 0.4, size=4)
            a = BoundingBox(c[0], c[1], c[0] + 0.3, c[1] + 0.3)
            d = gen.uniform(0, 0.4, size=4)
            b = BoundingBox(d[0], d[1], d[0] + 0.4, d[1] + 0.4)
            expected = sum(abs(x - y) for x, y in zip(a.corners(), b.corners()))
            assert box_l1(a, b) == pytest.approx(expected, abs=1e-15)


class TestSanitize:
    def test_degenerate_rejected(self):
        with pytest.raises(ValidationError):
            BoundingBox(0.5, 0.2, 0.5, 0.8)

    def test_min_side_enforced(self):
        b = sanitize_box(0.5, 0.5, 0.5, 0.5)
        assert b.width == pytest.approx(1e-4, rel=1e-9)
        assert b.height == pytest.approx(1e-4, rel=1e-9)

    def test_clamps_to_unit_square(self):
        b = sanitize_box(-0.2, 0.1, 1.4, 0.9)
        assert b.x_lt == 0.0 and b.x_rb == 1.0

    def test_degenerate_pair_giou_well_defined(self):
        a = sanitize_box(0.3, 0.3, 0.3, 0.3)
        b = sanitize_box(0.7, 0.7, 0.7, 0.7)
        assert -1.0 < giou(a, b) <= 1.0


@settings(max_examples=200, deadline=None)
@given(boxes_strategy(), boxes_strategy())
def test_symmetry_and_bounds(a, b):
    assert iou(a, b) == pytest.approx(iou(b, a), abs=1e-12)
    assert giou(a, b) == pytest.approx(giou(b, a), abs=1e-12)
    assert giou(a, b) <= iou(a, b) + 1e-12
    assert -1.0 < giou(a, b) <= 1.0 + 1e-12
    assert giou(a, a) == pytest.approx(1.0, abs=1e-12)
    assert box_l1(a, a) == 0.0
