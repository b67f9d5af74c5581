import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from dipex.boxes import BBox
from dipex.detection_losses import giou, giou_loss, l1_box_loss, sigmoid_focal_loss

import reference_train
from reference_detector import translate
from reference_geometry import iou


def test_l1_identical_boxes_is_zero():
    b = BBox(10.0, 20.0, 50.0, 60.0).as_tuple()
    assert l1_box_loss(b, b, 100.0, 100.0) == 0.0


def test_l1_unit_shift_in_every_center_size_coordinate():
    # target (cx, cy, w, h) = (5, 5, 10, 10); pred adds one pixel to each
    target = BBox(0.0, 0.0, 10.0, 10.0).as_tuple()
    pred = BBox(0.5, 0.5, 11.5, 11.5).as_tuple()  # (6, 6, 11, 11)
    assert l1_box_loss(pred, target, 100.0, 100.0) == pytest.approx(0.01, abs=1e-12)


def test_l1_symmetric_and_axis_normalized():
    a = BBox(0.0, 0.0, 10.0, 10.0)
    b = BBox(4.0, 6.0, 18.0, 30.0).as_tuple()
    # pure vertical shift scales with image height only
    shifted = translate(a, 0.0, 10.0).as_tuple()
    a = a.as_tuple()
    assert l1_box_loss(a, b, 200.0, 50.0) == l1_box_loss(b, a, 200.0, 50.0)
    assert l1_box_loss(shifted, a, 100.0, 50.0) == pytest.approx(
        (10.0 / 50.0) / 4.0
    )
    with pytest.raises(ValueError):
        l1_box_loss(a, b, 0.0, 50.0)


def test_giou_closed_forms():
    unit, far = BBox(0.0, 0.0, 1.0, 1.0).as_tuple(), BBox(2.0, 2.0, 3.0, 3.0).as_tuple()
    assert giou(unit, unit) == 1.0
    # disjoint unit boxes with a 3x3 hull: 0 - (9 - 2)/9
    assert giou(unit, far) == pytest.approx(-7.0 / 9.0, abs=1e-9)
    assert giou_loss(unit, far) == pytest.approx(1.0 + 7.0 / 9.0, abs=1e-9)


def test_giou_degenerate_hull_returns_zero():
    point = BBox(3.0, 3.0, 3.0, 3.0).as_tuple()
    assert giou(point, point) == 0.0


box_coords = st.floats(min_value=0.0, max_value=100.0, allow_nan=False)
box_extent = st.floats(min_value=0.1, max_value=80.0, allow_nan=False)


@st.composite
def proper_boxes(draw):
    x = draw(box_coords)
    y = draw(box_coords)
    return BBox(x, y, x + draw(box_extent), y + draw(box_extent))


@given(proper_boxes(), proper_boxes())
def test_giou_bounds_and_relation_to_iou(a, b):
    g = giou(a.as_tuple(), b.as_tuple())
    assert -1.0 <= g <= 1.0 + 1e-12
    assert g <= iou(a, b) + 1e-12
    assert g == giou(b.as_tuple(), a.as_tuple())


def test_focal_frozen_value_at_even_odds():
    loss, _ = sigmoid_focal_loss(0.0, 1.0)
    assert loss == pytest.approx(0.25 * 0.25 * math.log(2.0), abs=1e-12)
    assert loss == pytest.approx(0.04332169878499658, abs=1e-12)


def test_focal_downweights_easy_examples():
    easy, _ = sigmoid_focal_loss(6.0, 1.0)
    hard, _ = sigmoid_focal_loss(-6.0, 1.0)
    assert easy < 1e-4
    assert hard > 1.0


def test_focal_extreme_logits_stay_finite():
    for logit in (-1e3, 1e3):
        for target in (0.0, 1.0):
            loss, dloss = sigmoid_focal_loss(logit, target)
            assert np.isfinite(loss)
            assert np.isfinite(dloss)
    with pytest.raises(ValueError):
        sigmoid_focal_loss(0.0, 0.5)


def test_focal_gradient_matches_finite_differences():
    rng = np.random.default_rng(404)
    h = 1e-5
    for _ in range(50):
        logit = float(rng.uniform(-8.0, 8.0))
        target = float(rng.integers(0, 2))
        _, dloss = sigmoid_focal_loss(logit, target)
        hi, _ = sigmoid_focal_loss(logit + h, target)
        lo, _ = sigmoid_focal_loss(logit - h, target)
        numeric = (hi - lo) / (2.0 * h)
        scale = max(abs(numeric), abs(dloss), 1e-8)
        assert abs(numeric - dloss) / scale < 1e-4


def test_focal_vectorized_matches_scalar():
    logits = np.array([-2.0, 0.0, 3.0])
    targets = np.array([1.0, 0.0, 1.0])
    losses, dlosses = sigmoid_focal_loss(logits, targets)
    assert losses.shape == (3,)
    for i in range(3):
        want_l, want_d = sigmoid_focal_loss(float(logits[i]), float(targets[i]))
        assert losses[i] == pytest.approx(want_l, abs=1e-12)
        assert dlosses[i] == pytest.approx(want_d, abs=1e-12)


@st.composite
def boxes_maybe_degenerate(draw):
    x = draw(box_coords)
    y = draw(box_coords)
    w = draw(st.sampled_from([0.0, 1.0, 7.5]) | box_extent)
    h = draw(st.sampled_from([0.0, 2.0]) | box_extent)
    return BBox(x, y, x + w, y + h)


@given(
    st.lists(
        st.tuples(boxes_maybe_degenerate(), boxes_maybe_degenerate()), min_size=1, max_size=12
    )
)
def test_box_losses_vectorized_match_scalar_formulas(pairs):
    preds = np.array([p.as_tuple() for p, _ in pairs])
    targets = np.array([t.as_tuple() for _, t in pairs])
    widths = np.full(len(pairs), 640.0)
    heights = np.full(len(pairs), 480.0)
    l1 = l1_box_loss(preds, targets, widths, heights)
    g = giou_loss(preds, targets)
    assert l1.shape == g.shape == (len(pairs),)
    for i, (p, t) in enumerate(pairs):
        assert l1[i] == reference_train.l1_box_loss(p, t, 640.0, 480.0)
        assert g[i] == reference_train.giou_loss(p, t)


def test_box_losses_flag_degenerate_boxes(caplog):
    point = np.array([[3.0, 3.0, 3.0, 3.0]])
    box = np.array([[0.0, 0.0, 4.0, 4.0]])
    with caplog.at_level("WARNING", logger="dipex.detection_losses"):
        assert giou(point, point)[0] == 0.0
        l1_box_loss(box, point, 100.0, 100.0)
    messages = [r.getMessage() for r in caplog.records]
    assert any("giou" in m and "empty hull" in m for m in messages)
    assert any("l1_box_loss" in m and "zero-area" in m for m in messages)
    with pytest.raises(ValueError):
        l1_box_loss(box, box, np.array([640.0]), np.array([0.0]))
