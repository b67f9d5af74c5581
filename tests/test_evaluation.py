import json
import math
import re
import sys
import tracemalloc
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dipex.boxes import BBox
from dipex.evaluation import (
    CocoFormatError,
    EvalSummary,
    GroundTruthSet,
    IOU_THRESHOLDS,
    evaluate,
    load_coco_detections,
    load_coco_ground_truth,
)
from dipex.experiments import _write_summary

from conftest import assert_matches_reference, det_arrays, gt_arrays, random_eval_instance, rows_of
from reference_eval import reference_evaluate

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def gt_row(box, crowd=False):
    """An oracle ground-truth row whose area is the box's."""
    return (*box.as_tuple(), box.area, crowd)


def make_dets(rows):
    """rows: {sid: [(bbox, score), ...]} -> {sid: ScoredBoxes}."""
    return det_arrays(
        {sid: [(*box.as_tuple(), score) for box, score in items] for sid, items in rows.items()}
    )


def square(x, y, side):
    return BBox(x, y, x + side, y + side)


def assert_equals_reference(dets, gts, scene_ids, max_dets=(1, 10, 100)):
    summary = evaluate(det_arrays(dets), gt_arrays(gts, scene_ids), max_dets)
    assert_matches_reference(summary, reference_evaluate(dets, gts, scene_ids, max_dets), tol=0.0)


def test_thresholds_follow_coco_ladder():
    assert IOU_THRESHOLDS == tuple(0.5 + 0.05 * i for i in range(10))


def test_perfect_detections_score_one_exactly():
    gts = gt_arrays({0: [gt_row(square(0, 0, 100)), gt_row(square(200, 0, 120))]}, [0])
    dets = make_dets({0: [(square(0, 0, 100), 0.9), (square(200, 0, 120), 0.8)]})
    summary = evaluate(dets, gts)
    assert summary.ar_at[100] == 1.0
    assert summary.ar_at[10] == 1.0
    assert summary.ap == 1.0
    assert summary.ar_large == 1.0
    assert summary.ar_small is None
    assert summary.ap_small is None


def test_partial_overlap_matches_low_thresholds_only():
    # det covers 60% of the gt exactly: IoU 0.6 -> matched at 0.50/0.55/0.60
    gt_box = square(0, 0, 100)
    det_box = BBox(0.0, 0.0, 60.0, 100.0)
    area = 6000.0 / 10000.0
    assert abs(area - 0.6) < 1e-12
    gts = gt_arrays({0: [gt_row(gt_box)]}, [0])
    summary = evaluate(make_dets({0: [(det_box, 0.9)]}), gts)
    assert summary.ar_at[100] == pytest.approx(0.3, abs=1e-12)
    assert summary.ap == pytest.approx(0.3, abs=1e-12)


def test_crowd_regions_absorb_without_counting():
    crowd = square(0, 0, 200)
    real = square(300, 300, 100)
    gts = gt_arrays({0: [gt_row(crowd, crowd=True), gt_row(real)]}, [0])
    dets = make_dets({0: [(real, 0.95), (crowd, 0.9)]})
    summary = evaluate(dets, gts)
    # the crowd-hitting detection is neither TP nor FP; the real one is perfect
    assert summary.ar_at[100] == 1.0
    assert summary.ap == 1.0
    assert summary.num_ground_truths == 2
    # dropping the crowd hit entirely changes nothing
    alone = evaluate(make_dets({0: [(real, 0.95)]}), gts)
    assert alone.ap == summary.ap
    assert alone.ar_at[100] == summary.ar_at[100]


def test_false_positive_drags_precision_not_recall():
    real = square(0, 0, 100)
    gts = gt_arrays({0: [gt_row(real)]}, [0])
    dets = make_dets({0: [(square(400, 400, 50), 0.99), (real, 0.9)]})
    summary = evaluate(dets, gts)
    assert summary.ar_at[100] == 1.0
    # precision is 1/2 at every recall point on the grid
    assert summary.ap == pytest.approx(0.5, abs=1e-12)


def test_detection_cap_limits_recall():
    boxes = [square(0, 0, 100), square(150, 0, 100), square(300, 0, 100)]
    gts = gt_arrays({0: [gt_row(b) for b in boxes]}, [0])
    dets = make_dets({0: [(b, 0.9 - 0.1 * i) for i, b in enumerate(boxes)]})
    summary = evaluate(dets, gts, max_dets=(1, 2, 100))
    assert summary.ar_at[1] == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert summary.ar_at[2] == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert summary.ar_at[100] == 1.0


def test_size_buckets_split_and_ignore():
    small = square(0, 0, 20)        # area 400 -> S
    large = square(100, 100, 150)   # area 22500 -> L
    gts = gt_arrays({0: [gt_row(small), gt_row(large)]}, [0])
    dets = make_dets({0: [(small, 0.9), (large, 0.8)]})
    summary = evaluate(dets, gts)
    assert summary.ar_small == 1.0
    assert summary.ar_large == 1.0
    assert summary.ar_medium is None
    assert summary.ap_medium is None
    # a medium det matching nothing in the small bucket is ignored there, not a FP
    dets2 = make_dets({0: [(small, 0.9), (large, 0.8), (square(300, 300, 50), 0.85)]})
    assert evaluate(dets2, gts).ap_small == 1.0


def test_empty_detections_and_unknown_scene():
    gts = gt_arrays({0: [gt_row(square(0, 0, 100))]}, [0])
    summary = evaluate({}, gts)
    assert summary.ar_at[100] == 0.0
    assert summary.ap == 0.0
    assert summary.num_detections == 0
    with pytest.raises(CocoFormatError):
        evaluate(make_dets({5: [(square(0, 0, 10), 0.5)]}), gts)


def test_no_ground_truth_gives_none_everywhere():
    gts = gt_arrays({}, [0])
    summary = evaluate(make_dets({0: [(square(0, 0, 10), 0.5)]}), gts)
    assert summary.ar_at[100] is None
    assert summary.ap is None


def test_matches_reference_on_random_instances():
    rng = np.random.default_rng(2024)
    for _ in range(20):
        assert_equals_reference(*random_eval_instance(rng))


# integer side ranges of the small, medium and large buckets (areas 16-900,
# 1,089-9,025 and 9,409-40,000)
SIDES = ((4, 30), (33, 95), (97, 200))


@st.composite
def integer_boxes(draw):
    lo, hi = draw(st.sampled_from(SIDES))
    w, h = draw(st.integers(lo, hi)), draw(st.integers(lo, hi))
    x, y = draw(st.integers(0, 640 - w)), draw(st.integers(0, 480 - h))
    return (float(x), float(y), float(x + w), float(y + h))


@st.composite
def eval_problems(draw):
    """Oracle tables with crowd regions, every size bucket, annotated areas
    that disagree with the box, exact score ties, ground truths tied at
    equal IoU, and scenes without detections or without ground truth."""
    scores = st.one_of(st.sampled_from([0.25, 0.5, 0.75]), st.floats(0.01, 1.0))
    crowd = st.sampled_from([False, False, False, True])
    scene_ids = list(range(draw(st.integers(1, 4))))
    gts, dets = {}, {}
    for sid in scene_ids:
        rows = []
        for _ in range(draw(st.integers(0, 4))):
            box = draw(integer_boxes())
            area = (box[2] - box[0]) * (box[3] - box[1])
            if draw(st.integers(0, 2)) == 0:
                area = float(draw(st.integers(0, 40000)))
            rows.append(box + (area, draw(crowd)))
        drows = []
        if draw(st.booleans()):
            # a square detection at equal IoU with two mirrored ground truths
            # (the lower index must win), then a copy of the first of them
            side, grow = draw(st.integers(10, 120)), draw(st.integers(1, 60))
            x = float(draw(st.integers(0, 300)))
            first = (x, x, x + side, x + side + grow)
            second = (x, x, x + side + grow, x + side)
            for box in (first, second):
                rows.append(box + (float(side * (side + grow)), draw(crowd)))
            drows.append((x, x, x + side, x + side, draw(scores)))
            drows.append(first + (draw(scores),))
        for _ in range(draw(st.integers(0, 6))):
            if rows and draw(st.booleans()):
                x0, y0, x1, y1 = draw(st.sampled_from(rows))[:4]
                dx, dy = draw(st.integers(-6, 6)), draw(st.integers(-6, 6))
                box = (x0 + dx, y0 + dy, x1 + dx, y1 + dy)
            else:
                box = draw(integer_boxes())
            drows.append(box + (draw(scores),))
        gts[sid] = draw(st.sampled_from([rows, rows[::-1]]))
        dets[sid] = draw(st.permutations(drows))
    return dets, gts, scene_ids


@settings(max_examples=150, deadline=None)
@given(
    problem=eval_problems(),
    max_dets=st.sampled_from([(1, 10, 100), (1, 2, 100), (1, 2, 3), (2,)]),
)
def test_evaluate_equals_reference(problem, max_dets):
    assert_equals_reference(*problem, max_dets=max_dets)


def test_evaluate_equals_reference_past_the_cap():
    # one scene holds 130 detections, more than the largest cap
    rng = np.random.default_rng(130)
    dets, gts, scene_ids = random_eval_instance(rng, max_scenes=3, max_boxes=6)
    crowded = []
    for k in range(130):
        x, y = float(rng.integers(0, 500)), float(rng.integers(0, 380))
        w, h = float(rng.integers(4, 120)), float(rng.integers(4, 90))
        crowded.append((x, y, x + w, y + h, round(float(rng.random()), 1)))
    dets[scene_ids[0]] = crowded
    gts[scene_ids[0]] = [
        r[:4] + ((r[2] - r[0]) * (r[3] - r[1]), k % 5 == 0) for k, r in enumerate(crowded[::13])
    ]
    assert_equals_reference(dets, gts, scene_ids, max_dets=(1, 2, 100))


def pilot_like_instance(rng, num_scenes):
    """Scenes shaped like a pilot world's: 4 objects of mixed sizes, up to 8
    jittered detections with scores on a 0.01 grid (so ties occur)."""
    gts, dets = {}, {}
    for sid in range(num_scenes):
        rows = []
        for _ in range(4):
            side = float(rng.choice([rng.uniform(8, 31), rng.uniform(33, 95), rng.uniform(97, 200)]))
            w = side * float(rng.uniform(0.7, 1.4))
            h = side * side / w
            x, y = float(rng.uniform(0, 640 - w)), float(rng.uniform(0, 480 - h))
            rows.append((x, y, x + w, y + h, w * h, bool(rng.random() < 0.05)))
        gts[sid] = rows
        drows = []
        for _ in range(min(int(rng.poisson(3.0)), 8)):
            g = rows[int(rng.integers(0, 4))]
            dx, dy = rng.normal(0.0, 0.08 * (g[2] - g[0]), 2)
            score = round(float(rng.uniform(0.1, 1.0)), 2)
            drows.append((g[0] + dx, g[1] + dy, g[2] + dx, g[3] + dy, score))
        dets[sid] = drows
    return dets, gts, list(range(num_scenes))


def test_evaluate_equals_reference_at_800_scenes():
    assert_equals_reference(*pilot_like_instance(np.random.default_rng(800), 800))


def test_evaluate_peak_memory_spans_one_bucket_at_a_time(tmp_path):
    """The AP pass holds one size bucket's (threshold, detection) rows at a
    time.  On the benchmark's 80-scene eval instance one ``evaluate`` call
    peaks at 4.7 MB of traced memory (numpy 2.4); over all four buckets at
    once it peaked at 10.5 MB, and this bound is 0.6x that."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
    gt_path, (det_path,) = workloads.write_eval_inputs(0, tmp_path, 80, det_files=1)
    gts, dets = load_coco_ground_truth(gt_path), load_coco_detections(det_path)
    evaluate(dets, gts)  # the ground truth's arrays are built on first use
    tracemalloc.start()
    try:
        evaluate(dets, gts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.6 * 10.5e6


def test_summary_accessors_and_monotonic_guard():
    gts = gt_arrays({0: [gt_row(square(0, 0, 100))]}, [0])
    summary = evaluate(make_dets({0: [(square(0, 0, 100), 0.9)]}), gts)
    d = summary.to_dict()
    assert d["ar"]["100"] == 1.0
    assert set(d) == {f.name for f in fields(EvalSummary)} - {"ar_at"} | {"ar"}
    with pytest.raises(ValueError):
        EvalSummary(
            ar_at={1: 0.9, 10: 0.5}, ar_small=None, ar_medium=None, ar_large=None,
            ap=None, ap_small=None, ap_medium=None, ap_large=None,
        )


def test_summary_files(tmp_path):
    gts = gt_arrays({0: [gt_row(square(0, 0, 20))]}, [0])
    summary = evaluate(make_dets({0: [(square(0, 0, 20), 0.9)]}), gts)
    _write_summary(tmp_path, summary)
    doc = json.loads((tmp_path / "summary.json").read_text())
    assert doc["ap"] == 1.0
    assert doc["ap_large"] is None
    text = (tmp_path / "summary.csv").read_text()
    lines = text.strip().split("\n")
    assert lines[0].startswith("ar_1,")
    row = dict(zip(lines[0].split(","), lines[1].split(",")))
    assert row["ar_100"] == "1.000000"
    assert row["ap_l"] == ""  # None renders blank
    assert "\r" not in text


def test_coco_round_trip(small_world):
    gts = GroundTruthSet.from_world(small_world)
    assert gts.num_annotations == len(small_world.boxes)
    doc = gts.to_coco()
    # a crowd region whose explicit area is not its box's, listed last but
    # read back after the other rows of the first scene
    first = min(gts.scene_dims)
    crowd = {"image_id": first, "bbox": [1.0, 2.0, 10.0, 20.0], "area": 150.0, "iscrowd": 1}
    doc["annotations"].append(crowd)
    back = GroundTruthSet.from_coco(doc)
    assert back.scene_dims == gts.scene_dims
    k = int(np.searchsorted(gts.scene_ids, first, side="right"))
    assert back.scene_ids.tolist() == np.insert(gts.scene_ids, k, first).tolist()
    want_boxes = np.insert(gts.boxes, k, [1.0, 2.0, 11.0, 22.0], axis=0)
    np.testing.assert_allclose(back.boxes, want_boxes, rtol=0, atol=1e-9)
    assert back.areas.tolist() == np.insert(gts.areas, k, 150.0).tolist()
    assert back.crowd.tolist() == np.insert(gts.crowd, k, True).tolist()


def test_usual_and_checked_coco_records_read_alike(small_world):
    """The usual annotation (an integer image id, four floats, a float area
    or none) and the same records written otherwise (float ids, tuple boxes)
    read to the same bytes."""
    doc = GroundTruthSet.from_world(small_world).to_coco()
    for k, ann in enumerate(doc["annotations"]):
        if k % 3 == 0:
            del ann["area"]
    # boxes whose area from their corners is not w * h
    first = doc["images"][0]["id"]
    doc["annotations"] += [
        {"image_id": first, "bbox": [22.876, 94.527, 90.143, 3.059], "iscrowd": 1},
        {"image_id": first, "bbox": [43.789, 49.581, 23.308, 23.087]},
    ]
    other = {**doc, "annotations": [
        {**ann, "image_id": float(ann["image_id"]), "bbox": tuple(ann["bbox"])}
        for ann in doc["annotations"]
    ]}
    checked = GroundTruthSet.from_coco(other)
    usual = GroundTruthSet.from_coco(doc)
    for name in ("scene_ids", "boxes", "areas", "crowd"):
        assert getattr(usual, name).tobytes() == getattr(checked, name).tobytes()


@pytest.mark.parametrize(
    "change",
    [
        {"bbox": [60.0, 60.0, -30.0, 30.0]},
        {"bbox": [5.0, float("nan"), 50.0, 50.0]},
        {"bbox": [1e308, 0.0, 1e308, 1.0]},
        {"area": -1.0},
        {"area": float("inf")},
        {"image_id": 999},
        {"iscrowd": 2},
    ],
)
def test_usual_coco_records_fail_like_checked_ones(small_world, change):
    """A bad record of the usual types fails with the checkers' message."""
    doc = GroundTruthSet.from_world(small_world).to_coco()
    doc["annotations"][3].update(change)
    with pytest.raises(CocoFormatError) as usual:
        GroundTruthSet.from_coco(doc)
    doc["annotations"][3]["bbox"] = tuple(doc["annotations"][3]["bbox"])  # not the usual type
    with pytest.raises(CocoFormatError) as checked:
        GroundTruthSet.from_coco(doc)
    assert str(usual.value) == str(checked.value)
    assert str(usual.value).startswith("annotations[3]")


@pytest.mark.parametrize(
    "change, problem",
    [
        ({"areas": [-1.0]}, "area"),
        ({"areas": [float("nan")]}, "area"),
        ({"scene_ids": [7]}, "unknown scenes"),
        ({"scene_ids": [1, 0], "boxes": [[0, 0, 1, 1]] * 2, "areas": [1, 1], "crowd": [0, 0]}, "sorted"),
    ],
)
def test_ground_truth_set_rejects_bad_rows(change, problem):
    rows = dict(scene_ids=[0], boxes=[[0.0, 0.0, 2.0, 2.0]], areas=[4.0], crowd=[False])
    gts = GroundTruthSet(scene_dims={0: (640, 480), 1: (640, 480)}, **rows)
    assert not gts.boxes.flags.writeable and gts.boxes.shape == (1, 4)
    with pytest.raises(ValueError, match=problem):
        GroundTruthSet(scene_dims={0: (640, 480), 1: (640, 480)}, **{**rows, **change})


def test_coco_parsing_errors(tmp_path):
    with pytest.raises(CocoFormatError, match="missing 'images'"):
        GroundTruthSet.from_coco({"annotations": []})
    with pytest.raises(CocoFormatError, match="images\\[0\\]"):
        GroundTruthSet.from_coco({"images": [{"id": 0}], "annotations": []})
    with pytest.raises(CocoFormatError, match="annotations\\[0\\]"):
        GroundTruthSet.from_coco(
            {"images": [{"id": 0, "width": 10, "height": 10}],
             "annotations": [{"image_id": 0}]}
        )
    with pytest.raises(CocoFormatError, match="unknown image"):
        GroundTruthSet.from_coco(
            {"images": [{"id": 0, "width": 10, "height": 10}],
             "annotations": [{"image_id": 3, "bbox": [0, 0, 5, 5]}]}
        )
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(CocoFormatError, match="not valid JSON"):
        load_coco_ground_truth(bad)
    with pytest.raises(CocoFormatError, match="not valid JSON"):
        load_coco_detections(bad)
    arr = tmp_path / "obj.json"
    arr.write_text('{"a": 1}')
    with pytest.raises(CocoFormatError, match="JSON array"):
        load_coco_detections(arr)
    rec = tmp_path / "rec.json"
    rec.write_text('[{"image_id": 0}]')
    with pytest.raises(CocoFormatError, match="results\\[0\\]"):
        load_coco_detections(rec)


def _results(small_world):
    """A detection results array of the usual form: each ground-truth box of
    ``small_world``, shifted, with a score."""
    doc = GroundTruthSet.from_world(small_world).to_coco()
    return [
        {"image_id": ann["image_id"], "category_id": 1,
         "bbox": [v + 0.25 * k for v in ann["bbox"]], "score": 1.0 / (k + 2)}
        for k, ann in enumerate(doc["annotations"])
    ]


def _set(index, field, value):
    def change(doc):
        doc[index][field] = value
    return change


def _missing_before_bad_box(doc):
    del doc[2]["score"]
    doc[4]["bbox"] = [5.0, 5.0, -50.0, 50.0]


@pytest.mark.parametrize(
    "change, problem",
    [
        (None, None),
        (_set(3, "bbox", [1, 2, 30, 40]), None),
        (_set(3, "image_id", 1.0), None),
        (_set(3, "image_id", True), "results[3]: image_id must be an integer"),
        (_set(3, "image_id", 1.5), "results[3]: image_id must be an integer"),
        (_set(3, "score", "0.5"), "results[3]: score must be a number"),
        (_set(3, "bbox", [[1.0, 2.0], 3.0, 4.0, 5.0]), "results[3]: bbox must be a number"),
        (_set(3, "bbox", [1.0, 2.0, -3.0, 4.0]), "results[3]: inverted box"),
        (_missing_before_bad_box, "results[2] missing image_id/bbox/score"),
    ],
    ids=["usual", "int_bbox", "float_id", "bool_id", "fractional_id", "str_score", "nested_bbox",
         "inverted", "missing_then_bad"],
)
def test_usual_and_checked_detection_files_read_alike(small_world, tmp_path, monkeypatch, change, problem):
    """A results file of the usual records is read in arrays at once; the same
    records with every bbox a tuple go through the field checkers one by
    one.  Both give the same arrays, or the same error at the same index."""
    import dipex.evaluation as evaluation

    doc = _results(small_world)
    if change is None:
        assert evaluation._usual_detections(doc) is not None
    else:
        change(doc)
    path = tmp_path / "dets.json"
    path.write_text(json.dumps(doc))

    def read():
        try:
            by_scene = load_coco_detections(path)
        except CocoFormatError as exc:
            return str(exc)
        return {sid: (d.scene_ids.tobytes(), d.scores.tobytes(), d.boxes.tobytes()) for sid, d in by_scene.items()}

    usual = read()
    if problem is None:
        assert isinstance(usual, dict) and len(usual) == small_world.config.num_scenes
    else:
        assert usual.startswith(f"{path}: {problem}")
    forced = [{**rec, "bbox": tuple(rec["bbox"])} if "bbox" in rec else rec for rec in doc]
    assert evaluation._usual_detections(forced) is None
    monkeypatch.setattr(evaluation, "_read_json", lambda _: forced)
    assert read() == usual


_MISSING = object()
# (record kind, path to the mutated field)
_RECORD_FIELDS = [("images", (key,)) for key in ("id", "width", "height")] + [
    (kind, field)
    for kind in ("annotations", "results")
    for field in [("image_id",), ("bbox",), ("bbox", 2), ("score",), ("area",), ("iscrowd",)]
]


@settings(max_examples=300, deadline=None)
@given(
    kind_field=st.sampled_from(_RECORD_FIELDS),
    index=st.integers(0, 3),
    value=st.sampled_from([
        _MISSING, None, True, "1", [1.0], 2**63, 10**20, math.inf, -math.inf, math.nan, -1, -2.5, 3.0,
    ]),
)
def test_one_malformed_field_fails_as_a_format_error(
    small_world, tmp_path_factory, kind_field, index, value
):
    """One field of one record set to anything: the loader reads the
    document or raises ``CocoFormatError`` naming that record or an earlier
    one, never another exception.  An image id that still reads as an id
    may instead repeat a later image's id or orphan an annotation, and the
    message then names that record."""
    kind, field = kind_field
    gt = GroundTruthSet.from_world(small_world).to_coco()
    gt["annotations"] = gt["annotations"][:4]
    doc = _results(small_world)[:4] if kind == "results" else gt
    record = (doc if kind == "results" else doc[kind])[index]
    *parents, last = field
    for key in parents:
        record = record[key]
    if value is not _MISSING:
        record[last] = value
    elif isinstance(record, list) or last in record:
        del record[last]
    path = tmp_path_factory.getbasetemp() / "fuzzed.json"
    path.write_text(json.dumps(doc))  # NaN and Infinity literals
    load = load_coco_detections if kind == "results" else load_coco_ground_truth
    try:
        load(path)
    except CocoFormatError as exc:
        named = re.search(rf"{kind}\[(\d+)\]", str(exc))
        relinked = re.search("repeats image id|references unknown image", str(exc))
        assert (relinked and field == ("id",)) or (named and int(named.group(1)) <= index), str(exc)


def test_load_detections_groups_by_scene(tmp_path):
    path = tmp_path / "dets.json"
    path.write_text(json.dumps([
        {"image_id": 1, "category_id": 1, "bbox": [0, 0, 10, 10], "score": 0.5},
        {"image_id": 0, "category_id": 1, "bbox": [5, 5, 10, 10], "score": 0.7},
        {"image_id": 1, "category_id": 1, "bbox": [20, 0, 10, 10], "score": 0.6},
    ]))
    by_scene = load_coco_detections(path)
    assert list(by_scene) == [0, 1]
    assert by_scene[1].scene_ids.dtype.kind == "i"
    # xywh becomes xyxy, and each scene keeps its rows in file order
    assert rows_of(by_scene) == {
        0: [(0, (5.0, 5.0, 15.0, 15.0), 0.7)],
        1: [(1, (0.0, 0.0, 10.0, 10.0), 0.5), (1, (20.0, 0.0, 30.0, 10.0), 0.6)],
    }


def test_ground_truth_arrays_are_built_once_and_read_only(small_world):
    gts = GroundTruthSet.from_world(small_world)
    arrays = gts.arrays
    assert gts.arrays is arrays
    box = arrays[0]
    assert box.shape == (small_world.config.num_scenes, small_world.config.objects_per_scene, 4)
    for array in arrays:
        assert not array.flags.writeable
    # one hit per scene: its first object's box
    dets = det_arrays({sid: [box[sid, 0].tolist() + [0.9]] for sid in range(len(box))})
    first = evaluate(dets, gts)
    assert gts.arrays is arrays
    assert evaluate(dets, gts) == first
    assert first.ar_at[100] == 0.5
