import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from dipex.boxes import BBox, MEDIUM_MAX_AREA, SIZE_CLASSES, SMALL_MAX_AREA, intersection_area, iou
from dipex.evaluation import _size_class

from reference_detector import clip, translate
from reference_geometry import size_class_from_area, to_xywh

coords = st.floats(min_value=-500.0, max_value=500.0, allow_nan=False)
extents = st.floats(min_value=0.0, max_value=300.0, allow_nan=False)


@st.composite
def boxes(draw):
    x = draw(coords)
    y = draw(coords)
    return BBox(x, y, x + draw(extents), y + draw(extents))


def test_inverted_box_rejected():
    with pytest.raises(ValueError):
        BBox(1.0, 0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        BBox(0.0, 2.0, 1.0, 1.0)


def test_non_finite_box_rejected():
    with pytest.raises(ValueError):
        BBox(0.0, 0.0, math.inf, 1.0)
    with pytest.raises(ValueError):
        BBox(math.nan, 0.0, 1.0, 1.0)


def test_basic_measures():
    b = BBox(2.0, 3.0, 6.0, 11.0)
    assert b.width == 4.0
    assert b.height == 8.0
    assert b.area == 32.0
    assert b.as_tuple() == (2.0, 3.0, 6.0, 11.0)


def test_xywh_round_trip():
    b = BBox(5.0, 7.0, 15.0, 27.0)
    assert to_xywh(b) == (5.0, 7.0, 10.0, 20.0)
    assert BBox.from_xywh(*to_xywh(b)) == b


def test_clip_clamps_and_degenerates():
    b = BBox(-10.0, -5.0, 50.0, 60.0)
    c = clip(b, 40.0, 30.0)
    assert c == BBox(0.0, 0.0, 40.0, 30.0)
    # box entirely outside collapses to a zero-area sliver on the border
    far = clip(BBox(100.0, 100.0, 120.0, 130.0), 40.0, 30.0)
    assert far.area == 0.0
    assert far == BBox(40.0, 30.0, 40.0, 30.0)


def test_translate():
    assert translate(BBox(0.0, 0.0, 1.0, 2.0), 3.0, -0.5) == BBox(3.0, -0.5, 4.0, 1.5)


def test_intersection_and_iou_hand_case():
    a = BBox(0.0, 0.0, 2.0, 2.0)
    b = BBox(1.0, 0.0, 3.0, 2.0)
    assert intersection_area(a, b) == 2.0
    assert iou(a, b) == pytest.approx(1.0 / 3.0)


def test_iou_identical_and_disjoint():
    a = BBox(0.0, 0.0, 10.0, 10.0)
    assert iou(a, a) == 1.0
    assert iou(a, BBox(20.0, 20.0, 30.0, 30.0)) == 0.0


def test_iou_degenerate_boxes():
    point = BBox(5.0, 5.0, 5.0, 5.0)
    assert iou(point, point) == 0.0
    assert iou(point, BBox(0.0, 0.0, 10.0, 10.0)) == 0.0


def test_size_class_boundaries():
    assert size_class_from_area(SMALL_MAX_AREA - 1.0) == "S"
    assert size_class_from_area(SMALL_MAX_AREA) == "M"
    assert size_class_from_area(MEDIUM_MAX_AREA - 1.0) == "M"
    assert size_class_from_area(MEDIUM_MAX_AREA) == "L"
    with pytest.raises(ValueError):
        size_class_from_area(-1.0)
    # the evaluator's array form puts each boundary in the same class
    areas = [SMALL_MAX_AREA - 1.0, SMALL_MAX_AREA, MEDIUM_MAX_AREA - 1.0, MEDIUM_MAX_AREA]
    assert [SIZE_CLASSES[k] for k in _size_class(np.array(areas))] == ["S", "M", "M", "L"]


@given(boxes(), boxes())
def test_iou_symmetric_and_bounded(a, b):
    v = iou(a, b)
    assert v == iou(b, a)
    assert 0.0 <= v <= 1.0 + 1e-12


@given(boxes(), boxes())
def test_intersection_never_exceeds_either_area(a, b):
    inter = intersection_area(a, b)
    assert inter <= a.area + 1e-9
    assert inter <= b.area + 1e-9


@given(boxes())
def test_clip_stays_inside(b):
    c = clip(b, 200.0, 100.0)
    assert 0.0 <= c.x_min <= c.x_max <= 200.0
    assert 0.0 <= c.y_min <= c.y_max <= 100.0
    # clipping twice changes nothing
    assert clip(c, 200.0, 100.0) == c
