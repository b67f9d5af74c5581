import math
import tracemalloc
from dataclasses import dataclass, replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dipex.boxes import BBox
from dipex.pseudo_labels import build_pseudo_labels, soft_nms

import reference_detector as ref
from conftest import all_labels, as_arrays
from reference_detector import PseudoLabel, assign_responsibility


@dataclass(frozen=True)
class Det:
    scene_id: int
    bbox: BBox
    score: float
    prompt_id: int = 0


def unit_box(x, y, side=10.0):
    return BBox(x, y, x + side, y + side)


def build(dets_by_source, threshold=0.2, sigma=0.5, score_floor=0.001):
    """build_pseudo_labels over object lists, one ScoredBoxes per source."""
    sources = {name: as_arrays(dets) for name, dets in dets_by_source.items()}
    return build_pseudo_labels(sources, threshold, sigma, score_floor)


def scene_labels(labels, scene_id):
    return [label for label in all_labels(labels) if label.scene_id == scene_id]


def test_soft_nms_identical_pair_frozen_value():
    dets = [Det(0, unit_box(0, 0), 0.9), Det(0, unit_box(0, 0), 0.8)]
    out = soft_nms(dets)
    assert [d.score for d in out] == pytest.approx(
        [0.9, 0.8 * math.exp(-2.0)], abs=1e-12
    )
    assert out[1].score == pytest.approx(0.10826822658929016, abs=1e-12)


def test_soft_nms_disjoint_boxes_untouched():
    dets = [Det(0, unit_box(0, 0), 0.5), Det(0, unit_box(50, 50), 0.4)]
    out = soft_nms(dets)
    assert [d.score for d in out] == [0.5, 0.4]


def test_soft_nms_tie_breaks_to_earliest():
    dets = [Det(0, unit_box(0, 0), 0.7), Det(0, unit_box(3, 0), 0.7)]
    out = soft_nms(dets)
    assert out[0].bbox == dets[0].bbox


def test_soft_nms_drops_below_floor_and_validates():
    dets = [Det(0, unit_box(0, 0), 0.9), Det(0, unit_box(0, 0), 0.002)]
    out = soft_nms(dets)  # 0.002 * e^-2 < 0.001
    assert len(out) == 1
    with pytest.raises(ValueError):
        soft_nms(dets, sigma=0.0)


def test_soft_nms_never_raises_scores():
    dets = [
        Det(0, unit_box(0, 0), 0.9),
        Det(0, unit_box(4, 0), 0.8),
        Det(0, unit_box(8, 0), 0.7),
    ]
    out = soft_nms(dets)
    originals = {d.bbox.as_tuple(): d.score for d in dets}
    for d in out:
        assert d.score <= originals[d.bbox.as_tuple()] + 1e-15
    assert out[0].score == 0.9


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    num_groups=st.integers(1, 50),
    floor=st.sampled_from([0.001, 0.2, 0.5]),
    sigma=st.sampled_from([0.1, 0.5, 3.0]),
)
@example(seed=1, num_groups=1, floor=0.001, sigma=0.5)
@example(seed=2, num_groups=1, floor=0.2, sigma=0.5)
@example(seed=3, num_groups=50, floor=0.001, sigma=0.5)
def test_soft_nms_matches_scalar_reference(seed, num_groups, floor, sigma):
    """Grouped soft-NMS equals the one-box-at-a-time loop run group by group,
    in ascending group id: the same survivors in the same order, with the
    same score bytes, through the object and the array API.  Groups hold 0
    to 40 boxes, one of them up to 400, with their ids interleaved in the
    input.  Boxes cluster around a few objects, with exact duplicates,
    zero-area boxes and exact score ties; a floor of 0.2 is the default
    label threshold."""
    rng = np.random.default_rng(seed)
    sizes = rng.integers(0, 41, size=num_groups)
    if num_groups == 1 or rng.random() < 0.5:
        sizes[int(rng.integers(0, num_groups))] = rng.integers(0, 401)
    ids = rng.choice(1000, size=num_groups, replace=False) - 500
    group = rng.permutation(np.repeat(ids, sizes))
    dets, by_group = [], {g: [] for g in ids.tolist()}
    centres = {g: rng.uniform(0.0, 200.0, size=(int(rng.integers(1, 8)), 2)) for g in by_group}
    for k, g in enumerate(group.tolist()):
        same = by_group[g]
        if same and rng.random() < 0.1:
            det = replace(same[int(rng.integers(0, len(same)))], prompt_id=k)
        else:
            cx, cy = centres[g][int(rng.integers(0, len(centres[g])))] + rng.normal(scale=6.0, size=2)
            w, h = rng.uniform(0.0, 60.0, size=2) * (rng.random(2) > 0.1)  # some zero sides
            score = float(rng.uniform(0.0, 1.0))
            if rng.random() < 0.3:
                score = round(score, 1)
            det = Det(g, BBox(cx, cy, cx + w, cy + h), score, prompt_id=k)
        dets.append(det)
        same.append(det)
    want = [d for g in sorted(by_group) for d in ref.soft_nms(by_group[g], sigma, floor)]
    got = soft_nms(dets, sigma, floor, groups=group)
    assert [(d.prompt_id, d.score) for d in got] == [(d.prompt_id, d.score) for d in want]
    assert np.array([d.score for d in got]).tobytes() == np.array([d.score for d in want]).tobytes()
    boxes = np.array([d.bbox.as_tuple() for d in dets]).reshape(-1, 4)
    pairs = soft_nms(np.array([d.score for d in dets]), sigma, floor, boxes, group)
    assert pairs.tolist() == [(d.prompt_id, d.score) for d in want]
    if num_groups == 1:
        assert soft_nms(dets, sigma, floor) == got


def _grid(n, step, side, score=0.5):
    """n x n boxes of ``side`` every ``step`` pixels, scores falling by 0.01."""
    return [(step * i, step * j, step * i + side, step * j + side, score - 0.01 * (n * i + j))
            for i in range(n) for j in range(n)]


# (x0, y0, x1, y1, score) rows of one group, each large enough to be cut
SPLIT_CASES = {
    # touching along an edge or at a corner only, plus exact duplicates
    "touching": _grid(3, 10.0, 10.0) + [(0.0, 0.0, 10.0, 10.0, 0.45), (10.0, 10.0, 20.0, 20.0, 0.62)],
    # A and C are disjoint, B overlaps both: A-B-C must stay one part
    "chain": [
        (x, y, x + 10.0, y + 10.0, score)
        for y in (0.0, 20.0, 40.0)
        for x, score in ((0.0, 0.8), (8.0, 0.9), (16.0, 0.7))
    ],
    # one column overlaps in x only, one row in y only
    "one_axis": [(0.0, 12.0 * k, 10.0, 12.0 * k + 10.0, 0.9 - 0.05 * k) for k in range(5)]
    + [(30.0 + 12.0 * k, 0.0, 40.0 + 12.0 * k, 10.0, 0.88 - 0.05 * k) for k in range(5)],
    # far-apart clusters with the same scores: ties land in different parts
    "ties": [
        (cx + dx, cy, cx + dx + 20.0, cy + 20.0, score)
        for cx, cy in ((0.0, 0.0), (100.0, 100.0), (0.0, 100.0))
        for dx, score in ((0.0, 0.7), (2.0, 0.7), (4.0, 0.9), (6.0, 0.5))
    ],
    # points and lines, inside, on the edge of and apart from a box
    "zero_area": [
        (5.0, 5.0, 5.0, 5.0, 0.9), (0.0, 5.0, 10.0, 5.0, 0.8), (5.0, 0.0, 5.0, 10.0, 0.8),
        (0.0, 0.0, 10.0, 10.0, 0.7), (0.0, 0.0, 10.0, 10.0, 0.6), (10.0, 10.0, 10.0, 10.0, 0.95),
        (50.0, 50.0, 50.0, 50.0, 0.3), (50.0, 50.0, 60.0, 60.0, 0.3),
    ],
    # scattered duplicates of a few objects, as eval --merge sees them
    "large": [
        (float(x), float(y), float(x) + 30.0 + k % 3, float(y) + 25.0 + k % 4, round(0.05 + 0.9 * ((k * 37) % 41) / 41, 2))
        for k, (x, y) in enumerate([(0, 0), (2, 1), (100, 0), (101, 3), (0, 100), (3, 98), (60, 60), (62, 61)] * 5)
    ],
}


@pytest.mark.parametrize("floor", [0.001, 0.5])
@pytest.mark.parametrize("case", sorted(SPLIT_CASES))
def test_soft_nms_split_matches_scalar_reference(case, floor, monkeypatch):
    """A group cut into parts that cannot interact gives the one-box-at-a-time
    loop's survivors, order and score bytes, group by group, beside groups of
    1 to 4 boxes that are never cut."""
    import dipex.pseudo_labels as pseudo_labels

    cuts = []
    real_cut = pseudo_labels._cut

    def counting(*args):
        cuts.append(len(args[0]))
        return real_cut(*args)

    monkeypatch.setattr(pseudo_labels, "_cut", counting)
    rows = [(3, row) for row in SPLIT_CASES[case]]
    rows += [(g, (200.0 + g, 0.0, 210.0 + g, 10.0 + k, 0.6 - 0.1 * k)) for g in (0, 1, 2, 5) for k in range(g % 4 + 1)]
    order = np.random.default_rng(len(rows)).permutation(len(rows))  # interleave the groups
    dets = [Det(rows[i][0], BBox(*rows[i][1][:4]), rows[i][1][4], prompt_id=k) for k, i in enumerate(order)]
    group = np.array([d.scene_id for d in dets])
    want = [d for g in sorted(set(group.tolist())) for d in ref.soft_nms([d for d in dets if d.scene_id == g], 0.5, floor)]
    got = soft_nms(dets, 0.5, floor, groups=group)
    assert [(d.prompt_id, d.score) for d in got] == [(d.prompt_id, d.score) for d in want]
    assert np.array([d.score for d in got]).tobytes() == np.array([d.score for d in want]).tobytes()
    assert cuts, "the group was not cut"


def test_soft_nms_negative_scores_are_never_cut():
    """Rescaling raises a negative score, so a later selection can outscore
    an earlier one: groups with a negative score keep the plain loop.  Here
    B, rescaled by A, is selected before C but ends above A."""
    dets = [
        Det(0, BBox(0.0, 0.0, 10.0, 10.0), -0.1, prompt_id=0),   # A
        Det(0, BBox(0.0, 0.0, 10.0, 10.0), -0.9, prompt_id=1),   # B, on A
        Det(0, BBox(50.0, 0.0, 60.0, 10.0), -0.11, prompt_id=2),  # C, apart
    ] + [Det(0, BBox(100.0 + 20 * k, 0.0, 110.0 + 20 * k, 10.0), -0.5, prompt_id=3 + k) for k in range(6)]
    want = ref.soft_nms(dets, 0.1, -1.0)
    assert [d.prompt_id for d in want[:3]] == [0, 1, 2] and want[1].score > want[0].score
    got = soft_nms(dets, 0.1, -1.0)
    assert [(d.prompt_id, d.score) for d in got] == [(d.prompt_id, d.score) for d in want]


def test_soft_nms_non_finite_coordinates_never_cut(monkeypatch):
    """No part starts at an infinite or NaN left edge, nor after boxes whose
    right edges reach no finite coordinate; such boxes leave the uncut
    loop's result unchanged."""
    import dipex.pseudo_labels as pseudo_labels

    inf, nan = math.inf, math.nan
    lo = np.array([-inf, 0.0, 5.0, inf, nan])
    hi = np.array([-inf, 10.0, 15.0, inf, nan])
    assert pseudo_labels._cut(np.zeros(5, dtype=int), lo, hi).tolist() == [0] * 5
    lo, hi = np.array([0.0, 20.0, 30.0, 40.0]), np.array([10.0, 25.0, nan, 50.0])
    assert pseudo_labels._cut(np.zeros(4, dtype=int), lo, hi).tolist() == [0, 1, 2, 2]

    boxes = np.array(
        [[-inf, 0, -inf, 10], [0, 0, 10, 10], [5, 0, 15, 10], [inf, 0, inf, 10], [nan, 0, 50, 10],
         [45, 0, nan, 10], [60, 0, 70, 10], [62, 0, 72, 10], [0, inf, 10, inf], [0, 20, 10, 30]],
        dtype=float,
    )
    scores = np.linspace(0.9, 0.1, len(boxes))
    with np.errstate(invalid="ignore"):  # inf - inf in the IoU
        cut = soft_nms(scores, 0.5, 0.001, boxes)
        monkeypatch.setattr(pseudo_labels, "_SPLIT_MIN_GROUP", len(boxes) + 1)
        assert cut.tolist() == soft_nms(scores, 0.5, 0.001, boxes).tolist()


def test_soft_nms_memory_stays_linear():
    """24 groups of 320 overlapping boxes, the eval --merge workload's shape,
    peak below one dense (24, 320, 320) IoU tensor: rows are computed on
    demand, never as a matrix per group."""
    rng = np.random.default_rng(0)
    centres = rng.uniform(0.0, 400.0, size=(24, 10, 2))
    xy = np.repeat(centres, 32, axis=1).reshape(-1, 2) + rng.normal(scale=3.0, size=(24 * 320, 2))
    boxes = np.hstack([xy, xy + 40.0 + rng.normal(scale=3.0, size=(24 * 320, 2))])
    scores = rng.uniform(0.05, 0.95, size=24 * 320)
    group = np.repeat(np.arange(24), 320)
    tracemalloc.start()
    try:
        kept = soft_nms(scores, 0.5, 0.001, boxes, group)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(kept) > 24 * 10
    assert peak < 24 * 320 * 320 * 8


def test_soft_nms_rejects_non_finite_scores():
    with pytest.raises(ValueError):
        soft_nms(np.array([0.5, math.nan]), 0.5, 0.001, np.zeros((2, 4)))


def test_build_keeps_original_scores_and_threshold():
    dets = [
        Det(0, unit_box(0, 0), 0.9),
        Det(0, unit_box(2, 0), 0.6),  # heavy overlap, suppressed below 0.2
        Det(0, unit_box(50, 50), 0.3),
        Det(0, unit_box(100, 100), 0.1),  # below threshold outright
    ]
    labels = build({"src": dets}, threshold=0.2)
    got = [(l.bbox.as_tuple(), l.score) for l in scene_labels(labels, 0)]
    assert (unit_box(0, 0).as_tuple(), 0.9) in got
    assert (unit_box(50, 50).as_tuple(), 0.3) in got
    assert all(box != unit_box(100, 100).as_tuple() for box, _ in got)
    # survivor scores are the submitted ones, not the suppressed ones
    assert all(s in (0.9, 0.3, 0.6) for _, s in got)


def test_build_unions_sources_and_collapses_exact_duplicates():
    a = [Det(0, unit_box(0, 0), 0.9)]
    b = [Det(0, unit_box(0, 0), 0.9), Det(1, unit_box(5, 5), 0.8)]
    labels = build({"a": a, "b": b}, threshold=0.2)
    assert len(scene_labels(labels, 0)) == 1
    assert len(scene_labels(labels, 1)) == 1
    assert labels.meta["sources"] == ["a", "b"]
    # a wide sigma barely suppresses, so only the dedupe removes the copy
    wide = build({"b": b, "a": a}, threshold=0.2, sigma=100.0)
    assert len(scene_labels(wide, 0)) == 1
    with pytest.raises(ValueError):
        build({"a": a}, threshold=1.0)


def test_build_is_idempotent_on_hand_case():
    dets = [
        Det(0, unit_box(0, 0), 0.9),
        Det(0, unit_box(6, 0), 0.75),
        Det(0, unit_box(3, 3), 0.5),
        Det(0, unit_box(40, 40), 0.21),
    ]
    first = build({"x": dets}, threshold=0.2)
    again = build_pseudo_labels({"y": first}, 0.2, 0.5, 0.001)
    assert [
        (l.scene_id, l.bbox.as_tuple(), l.score) for l in all_labels(first)
    ] == [(l.scene_id, l.bbox.as_tuple(), l.score) for l in all_labels(again)]


@given(st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=80.0),
        st.floats(min_value=0.0, max_value=80.0),
        st.floats(min_value=0.21, max_value=1.0),
    ),
    min_size=0,
    max_size=12,
))
@settings(max_examples=60, deadline=None)
def test_build_idempotent_property(rows):
    dets = [Det(0, unit_box(x, y), round(s, 6)) for x, y, s in rows]
    first = build({"p": dets}, threshold=0.2)
    again = build_pseudo_labels({"p": first}, 0.2, 0.5, 0.001)
    assert [
        (l.bbox.as_tuple(), l.score) for l in all_labels(first)
    ] == [(l.bbox.as_tuple(), l.score) for l in all_labels(again)]


def _label_sources(rng, num_sources):
    """1-6 object lists under shuffled names: empty sources, one list under
    two names, exact cross-source duplicates, score ties, and scene ids
    with gaps (scenes without candidates), boxes crowded enough to
    suppress each other."""
    scenes = rng.choice(10, size=int(rng.integers(1, 5)), replace=False)
    sources, pool = {}, []
    for name in rng.permutation([f"src_{k}" for k in range(num_sources)]).tolist():
        if sources and rng.random() < 0.2:
            sources[name] = sources[rng.choice(sorted(sources))]
            continue
        dets = []
        for _ in range(int(rng.integers(0, 15)) * (rng.random() > 0.15)):
            if pool and rng.random() < 0.2:
                dets.append(pool[int(rng.integers(0, len(pool)))])
                continue
            x, y = rng.uniform(0.0, 60.0, size=2)
            w, h = rng.uniform(1.0, 40.0, size=2)
            score = float(rng.uniform(0.0, 1.0))
            if rng.random() < 0.3:
                score = round(score, 1)
            dets.append(Det(int(rng.choice(scenes)), BBox(x, y, x + w, y + h), score))
            pool.append(dets[-1])
        sources[name] = dets
    return sources


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    num_sources=st.integers(1, 6),
    threshold=st.sampled_from([0.0, 0.2, 0.5]),
)
@example(seed=0, num_sources=6, threshold=0.2)
def test_build_matches_scalar_reference(seed, num_sources, threshold):
    """The array label builder equals the scene-by-scene oracle over objects:
    the same scene ids and box and score bytes, in the same order,
    and rebuilding from its own output returns it.  No label scores under
    the threshold, not even a scene's top candidate."""
    sources = _label_sources(np.random.default_rng(seed), num_sources)
    want = ref.build_pseudo_labels(sources, threshold)
    got = build(sources, threshold=threshold)
    assert (got.scores >= threshold).all()
    assert got.scene_ids.tolist() == [label.scene_id for label in want]
    assert got.boxes.tobytes() == np.array([l.bbox.as_tuple() for l in want]).reshape(-1, 4).tobytes()
    assert got.scores.tobytes() == np.array([label.score for label in want]).tobytes()
    again = build_pseudo_labels({"again": got}, threshold, 0.5, 0.001)
    for column in ("scene_ids", "scores", "boxes"):
        assert getattr(again, column).tobytes() == getattr(got, column).tobytes()


def test_label_set_len_and_coco():
    labels = build({"s": [Det(0, unit_box(0, 0), 0.9), Det(2, unit_box(5, 5), 0.5)]})
    assert len(labels) == 2
    # every scene is listed, scene 1 without labels too
    doc = labels.to_coco({2: (640, 480), 0: (640, 480), 1: (320, 240)})
    assert [img["id"] for img in doc["images"]] == [0, 1, 2]
    assert doc["images"][1] == {"id": 1, "width": 320, "height": 240}
    assert len(doc["annotations"]) == 2
    ann = doc["annotations"][0]
    assert ann["iscrowd"] == 0
    assert ann["category_id"] == 1
    assert ann["area"] == pytest.approx(100.0)
    assert doc["categories"] == [{"id": 1, "name": "object"}]


def test_responsibility_prefers_best_score_then_lowest_id():
    label = PseudoLabel(0, unit_box(0, 0), 0.9, "x")
    dets = [
        Det(0, unit_box(0.5, 0), 0.7, prompt_id=4),
        Det(0, unit_box(0, 0.5), 0.7, prompt_id=2),
        Det(0, unit_box(1, 1), 0.3, prompt_id=9),
        Det(0, unit_box(60, 60), 0.99, prompt_id=1),  # no overlap, ignored
    ]
    assignments, misses = assign_responsibility(dets, [label])
    assert not misses
    rec = assignments[0]
    assert rec.responsible_prompt_id == 2
    assert rec.targets == {2: 1, 4: 0, 9: 0}
    assert set(rec.matched) == {2, 4, 9}


def test_responsibility_keeps_best_det_per_prompt():
    label = PseudoLabel(0, unit_box(0, 0), 0.9, "x")
    dets = [
        Det(0, unit_box(1, 0), 0.4, prompt_id=0),
        Det(0, unit_box(0, 1), 0.6, prompt_id=0),
    ]
    assignments, _ = assign_responsibility(dets, [label])
    assert assignments[0].matched[0].score == 0.6


def test_responsibility_misses_and_scene_isolation():
    labels = [
        PseudoLabel(0, unit_box(0, 0), 0.9, "x"),
        PseudoLabel(1, unit_box(0, 0), 0.9, "x"),
    ]
    dets = [Det(0, unit_box(0, 0), 0.8, prompt_id=0)]
    assignments, misses = assign_responsibility(dets, labels)
    assert len(assignments) == 1
    assert assignments[0].label.scene_id == 0
    assert [m.scene_id for m in misses] == [1]
    with pytest.raises(ValueError):
        assign_responsibility(dets, labels, iou_min=0.0)


def test_responsibility_accepts_label_set():
    label_set = as_arrays([PseudoLabel(0, unit_box(0, 0), 0.9, "x")], labels=True)
    dets = [Det(0, unit_box(0, 0), 0.8, prompt_id=3)]
    assignments, misses = assign_responsibility(dets, all_labels(label_set))
    assert assignments[0].responsible_prompt_id == 3
    assert not misses
