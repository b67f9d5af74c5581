"""Shared fixtures and converters between package objects and oracle tuples."""

import numpy as np
import pytest

from dipex import DetectorParams, GroundTruthSet, WorldConfig, generate_world
from dipex.boxes import BBox
from dipex.pseudo_labels import PseudoLabelSet, ScoredBoxes

from reference_detector import PseudoLabel

SMALL_WORLD = WorldConfig(
    dim=16,
    num_clusters=2,
    objects_per_cluster=10,
    num_scenes=10,
    objects_per_scene=2,
    seed=123,
)

TINY_WORLD = WorldConfig(
    dim=8,
    num_clusters=2,
    objects_per_cluster=5,
    num_scenes=5,
    objects_per_scene=2,
    seed=7,
)


@pytest.fixture(scope="session")
def small_world():
    return generate_world(SMALL_WORLD)


@pytest.fixture(scope="session")
def tiny_world():
    return generate_world(TINY_WORLD)


@pytest.fixture
def default_params():
    return DetectorParams()


def as_arrays(items, labels=False):
    """ScoredBoxes of objects with scene_id/bbox/score attributes, in the
    given order; with ``labels``, the PseudoLabelSet of PseudoLabel objects."""
    scene_ids = np.array([int(d.scene_id) for d in items], dtype=int)
    scores = np.array([float(d.score) for d in items])
    boxes = np.array([d.bbox.as_tuple() for d in items], dtype=float).reshape(-1, 4)
    if labels:
        return PseudoLabelSet(scene_ids, scores, boxes)
    return ScoredBoxes(scene_ids, scores, boxes)


def all_labels(labels: PseudoLabelSet) -> list[PseudoLabel]:
    """The labels of a PseudoLabelSet as PseudoLabel objects, in its order,
    with an empty source name, as the scalar label builder gives them."""
    rows = (labels.scene_ids, labels.boxes, labels.scores)
    return [
        PseudoLabel(sid, BBox(*box), score, "")
        for sid, box, score in zip(*(column.tolist() for column in rows))
    ]


def rows_of(by_key):
    """{key: ScoredBoxes} -> {key: [(scene, xyxy tuple, score), ...]}, for
    exact comparisons."""
    return {
        key: list(zip(d.scene_ids.tolist(), map(tuple, d.boxes.tolist()), d.scores.tolist()))
        for key, d in by_key.items()
    }


def det_arrays(table):
    """Oracle detections {sid: [(x0, y0, x1, y1, score), ...]} -> the
    package's {sid: ScoredBoxes}, rows in the listed order."""
    out = {}
    for sid, rows in table.items():
        rows = np.array(rows, dtype=float).reshape(-1, 5)
        out[sid] = ScoredBoxes(np.full(len(rows), sid, dtype=int), rows[:, 4], rows[:, :4])
    return out


def gt_arrays(table, scene_ids):
    """Oracle ground truth {sid: [(x0, y0, x1, y1, area, iscrowd), ...]} ->
    the package's GroundTruthSet over ``scene_ids``, each 640x480, rows in
    scene order and then in the listed order."""
    sids = sorted(table)
    rows = np.array([row for sid in sids for row in table[sid]], dtype=float).reshape(-1, 6)
    return GroundTruthSet(
        scene_dims={sid: (640, 480) for sid in scene_ids},
        scene_ids=np.repeat(np.array(sids, dtype=int), [len(table[sid]) for sid in sids]),
        boxes=rows[:, :4],
        areas=rows[:, 4],
        crowd=rows[:, 5] != 0.0,
    )


def assert_matches_reference(summary, ref, tol=1e-9):
    """Compare an EvalSummary against the oracle dict, including None buckets."""
    pairs = [(summary.ar_at[c], ref["ar_at"][c]) for c in sorted(summary.ar_at)]
    for tag in ("small", "medium", "large"):
        pairs.append((getattr(summary, f"ar_{tag}"), ref[f"ar_{tag}"]))
        pairs.append((getattr(summary, f"ap_{tag}"), ref[f"ap_{tag}"]))
    pairs.append((summary.ap, ref["ap"]))
    for got, want in pairs:
        if want is None:
            assert got is None
        else:
            assert got is not None
            assert abs(got - want) <= tol, (got, want)


def random_eval_instance(rng: np.random.Generator, max_scenes=5, max_boxes=8):
    """Small random scoring problem exercising crowd flags, size classes, ties."""
    width, height = 640.0, 480.0
    side_ranges = [(4.0, 30.0), (34.0, 90.0), (100.0, 220.0)]
    num_scenes = int(rng.integers(1, max_scenes + 1))
    scene_ids = list(range(num_scenes))
    gts = {}
    dets = {}
    for sid in scene_ids:
        rows = []
        for _ in range(int(rng.integers(0, max_boxes + 1))):
            lo, hi = side_ranges[int(rng.integers(0, 3))]
            w = float(rng.uniform(lo, hi))
            h = float(rng.uniform(lo, hi))
            x = float(rng.uniform(0.0, width - w))
            y = float(rng.uniform(0.0, height - h))
            rows.append((x, y, x + w, y + h, w * h, bool(rng.random() < 0.15)))
        gts[sid] = rows
        drows = []
        for _ in range(int(rng.integers(0, max_boxes + 1))):
            if rows and rng.random() < 0.7:
                bx = rows[int(rng.integers(0, len(rows)))]
                dx = float(rng.uniform(-8.0, 8.0))
                dy = float(rng.uniform(-8.0, 8.0))
                box = (bx[0] + dx, bx[1] + dy, bx[2] + dx, bx[3] + dy)
            else:
                lo, hi = side_ranges[int(rng.integers(0, 3))]
                w = float(rng.uniform(lo, hi))
                h = float(rng.uniform(lo, hi))
                x = float(rng.uniform(0.0, width - w))
                y = float(rng.uniform(0.0, height - h))
                box = (x, y, x + w, y + h)
            score = float(rng.uniform(0.05, 1.0))
            if rng.random() < 0.3:
                score = round(score, 1)  # force exact score ties
            drows.append(box + (score,))
        dets[sid] = drows
    return dets, gts, scene_ids
