"""The batched training kernel against its per-label reference, and its
assembled classification gradient against finite differences."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dipex.boxes import BBox
from dipex.detector import DetectorParams, candidate_detections
from dipex.expansion import (
    ExpansionConfig,
    _batch_step,
    _round_data,
    assign_responsibility,
)
from dipex.pseudo_labels import PseudoLabel, PseudoLabelSet
from dipex.world import Scene, World

from conftest import as_arrays
from reference_detector import clip
from reference_train import reference_batch, scene_data

PARAMS = DetectorParams()
CONFIG = ExpansionConfig()


def ragged(world: World, rng: np.random.Generator) -> World:
    """The same world with a random number of objects dropped per scene."""
    scenes = []
    for scene in world.scenes:
        keep = int(rng.integers(1, len(scene.object_ids) + 1))
        scenes.append(Scene(scene.id, scene.width, scene.height, scene.object_ids[:keep]))
    return World(world.config, world.cluster_centers, world.objects, scenes)


def random_labels(world: World, rng: np.random.Generator) -> PseudoLabelSet:
    """Labels near objects, plus one 2x2 box per labelled scene that no
    candidate can match, shuffled across scenes.  The lowest scene id gets
    no labels at all."""
    out = []
    for scene in sorted(world.scenes, key=lambda s: s.id)[1:]:
        for obj in world.scene_objects(scene):
            if rng.random() < 0.7:
                x0, y0, x1, y1 = obj.bbox.as_tuple()
                dx, dy = rng.uniform(-0.1, 0.1, size=2) * (x1 - x0)
                box = clip(BBox(x0 + dx, y0 + dy, x1 + dx, y1 + dy), scene.width, scene.height)
                out.append(PseudoLabel(scene.id, box, float(rng.uniform(0.2, 1.0)), "near"))
        x, y = rng.uniform(0.0, 400.0, size=2)
        out.append(PseudoLabel(scene.id, BBox(x, y, x + 2.0, y + 2.0), 0.5, "stray"))
    return as_arrays([out[i] for i in rng.permutation(len(out))], labels=True)


def random_prompts(world: World, rng: np.random.Generator, tie: bool = False) -> np.ndarray:
    """Prompts near the clusters, of uneven norm; with ``tie``, two identical
    rows, which forces exact responsibility ties."""
    n = int(rng.integers(2 if tie else 1, 9))
    centers = world.cluster_centers[rng.integers(0, len(world.cluster_centers), size=n)]
    V = centers + rng.normal(scale=rng.uniform(0.05, 1.0), size=centers.shape)
    if tie:
        V[int(rng.integers(1, n))] = V[0]
    return V * rng.uniform(0.5, 2.0, size=(n, 1))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), which=st.sampled_from(["tiny", "small"]))
def test_batch_step_matches_per_label_reference(tiny_world, small_world, seed, which):
    rng = np.random.default_rng(seed)
    world = tiny_world if which == "tiny" else small_world
    is_ragged = rng.random() < 0.5
    if is_ragged:
        world = ragged(world, rng)
    labels = random_labels(world, rng)
    # Exact ties survive only where both sides multiply same-shaped matrices.
    V = random_prompts(world, rng, tie=not is_ragged and rng.random() < 0.5)
    trainable = rng.random(V.shape[0]) < 0.7
    ids = np.array(sorted(s.id for s in world.scenes))
    rows = rng.permutation(ids.size)[: int(rng.integers(1, ids.size + 1))]
    rows = np.union1d(rows, [0]) if rng.random() < 0.5 else rows

    want_tally, want_grad = reference_batch(
        scene_data(world, labels, CONFIG.seed), ids[rows], V, trainable, PARAMS, CONFIG
    )
    tally, grad = _batch_step(
        _round_data(world, labels, CONFIG.seed), rows, V, trainable, PARAMS, CONFIG
    )

    counts = (tally.num_assigned, tally.num_missed)
    assert counts == (want_tally.num_assigned, want_tally.num_missed)
    assert tally.num_missed >= int(np.count_nonzero(rows != 0))  # one stray per scene
    assert not grad[~trainable].any()
    if is_ragged:
        # The reference multiplies each scene's narrower object matrix, and
        # BLAS may round a dot product differently for another shape.
        np.testing.assert_allclose(grad, want_grad, rtol=1e-12, atol=1e-12)
        for name in ("cls_sum", "bbox_sum", "giou_sum"):
            assert getattr(tally, name) == pytest.approx(getattr(want_tally, name), rel=1e-12)
    else:
        assert grad.tobytes() == want_grad.tobytes()
        assert tally == want_tally


def _matching(data, rows, V):
    unit = V / np.linalg.norm(V, axis=1, keepdims=True)
    _, _, scores, boxes = candidate_detections(data.scenes, unit, PARAMS, rows)
    m = assign_responsibility(data, rows, scores, boxes, CONFIG.label_iou_min)
    return m.has, m.best_obj, m.responsible


def test_batch_gradient_matches_finite_differences(small_world):
    """The assembled per-batch focal gradient, wherever the matching does not
    change within the difference step (away from argmax and IoU ties)."""
    rng = np.random.default_rng(2024)
    labels = random_labels(small_world, rng)
    data = _round_data(small_world, labels, CONFIG.seed)
    h = 1e-6
    checked = 0
    for _ in range(6):
        V = random_prompts(small_world, rng)
        trainable = np.ones(V.shape[0], dtype=bool)
        rows = rng.permutation(data.scenes.scene_ids.size)[:8]

        def loss(W):
            tally, _ = _batch_step(data, rows, W, trainable, PARAMS, CONFIG)
            return tally.cls_sum / max(tally.num_assigned, 1)

        tally, grad = _batch_step(data, rows, V, trainable, PARAMS, CONFIG)
        grad = grad / max(tally.num_assigned, 1)
        here = _matching(data, rows, V)
        for flat in rng.choice(V.size, size=12, replace=False):
            r, c = divmod(int(flat), V.shape[1])
            hi, lo = V.copy(), V.copy()
            hi[r, c] += h
            lo[r, c] -= h
            same = all(
                all(np.array_equal(a, b) for a, b in zip(here, _matching(data, rows, W)))
                for W in (hi, lo)
            )
            if not same:
                continue
            numeric = (loss(hi) - loss(lo)) / (2.0 * h)
            # the floor keeps round-off in the difference (~1e-10) out of tiny entries
            scale = max(abs(numeric), abs(grad[r, c]), 1e-3)
            assert abs(numeric - grad[r, c]) / scale < 1e-5, (r, c, numeric, grad[r, c])
            checked += 1
    assert checked >= 50
