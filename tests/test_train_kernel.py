"""The batched training kernel against its per-label reference, a whole
training round against its per-batch reference, and the assembled
classification gradient against finite differences."""

from dataclasses import astuple, replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dipex.boxes import BBox
from dipex.detector import DetectorParams, candidate_detections, pack_world
from dipex.expansion import (
    ExpansionConfig,
    PromptTree,
    _batch_step,
    _label_table,
    _tallies,
    assign_responsibility,
    expand,
    train_round,
)
from dipex.geometry import normalize
from dipex.pseudo_labels import PseudoLabelSet
from dipex.world import World

import reference_world
from conftest import all_labels, as_arrays
from reference_detector import PseudoLabel, clip
from reference_train import reference_batch, reference_round, scene_data

PARAMS = DetectorParams()
CONFIG = ExpansionConfig()


def ragged(world: World, rng: np.random.Generator) -> World:
    """The same world with a random number of objects dropped per scene."""
    scenes = []
    for scene in reference_world.scenes_of(world):
        keep = int(rng.integers(1, len(scene.object_ids) + 1))
        scenes.append(replace(scene, object_ids=scene.object_ids[:keep]))
    return reference_world.pack(world.config, world.cluster_centers, world.objects, scenes)


def random_labels(world: World, rng: np.random.Generator) -> PseudoLabelSet:
    """Labels near objects, plus one 2x2 box per labelled scene that no
    candidate can match, shuffled across scenes.  The lowest scene id gets
    no labels at all."""
    out = []
    for scene in reference_world.scenes_of(world)[1:]:
        for obj in reference_world.scene_objects(world, scene):
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
    rows, which forces exact responsibility ties.  Mostly 1-8 prompts, else
    up to 40, the size of a default run's tree (10, 19 and 28 prompts)."""
    n = int(rng.integers(2 if tie else 1, 9 if rng.random() < 0.6 else 41))
    centers = world.cluster_centers[rng.integers(0, len(world.cluster_centers), size=n)]
    V = centers + rng.normal(scale=rng.uniform(0.05, 1.0), size=centers.shape)
    if tie:
        V[int(rng.integers(1, n))] = V[0]
    return V * rng.uniform(0.5, 2.0, size=(n, 1))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), which=st.sampled_from(["tiny", "small"]))
@example(seed=4, which="tiny")  # a batch of scene 0 alone: no assigned label
def test_batch_step_matches_per_label_reference(tiny_world, small_world, seed, which):
    rng = np.random.default_rng(seed)
    world = tiny_world if which == "tiny" else small_world
    is_ragged = rng.random() < 0.5
    if is_ragged:
        world = ragged(world, rng)
    labels = random_labels(world, rng)
    # Exact ties survive only where both sides multiply same-shaped matrices.
    V = random_prompts(world, rng, tie=not is_ragged and rng.random() < 0.5)
    ids = np.arange(world.config.num_scenes)
    rows = rng.permutation(ids.size)[: int(rng.integers(1, ids.size + 1))]
    rows = np.union1d(rows, [0]) if rng.random() < 0.5 else rows
    # one epoch's worth of batches, in the order given; scene 0 has no
    # labels, so a batch of it alone has none assigned
    cuts = np.sort(rng.choice(np.arange(1, rows.size), size=min(rows.size - 1, 2), replace=False))
    batches = np.split(rows, cuts) if rng.random() < 0.5 else [rows]

    scenes = pack_world(world, CONFIG.seed).take(rows)
    table = _label_table(labels, ids.size)[rows]
    ends = np.cumsum([batch.size for batch in batches])
    spans = [slice(end - batch.size, end) for batch, end in zip(batches, ends)]
    steps = [_batch_step(scenes.take(b), table[b], V, PARAMS, CONFIG) for b in spans]
    sums = _tallies([terms for terms, _ in steps])
    assert sums.shape == (len(batches), 3)
    sdata = scene_data(world, all_labels(labels), CONFIG.seed)
    every = np.ones(V.shape[0], dtype=bool)
    for batch, row, (terms, grad) in zip(batches, sums.tolist(), steps):
        want_tally, want_grad = reference_batch(sdata, ids[batch], V, every, PARAMS, CONFIG)
        assert terms.per_label.size == want_tally.num_assigned
        if not terms.per_label.size:
            # no term at all, and exactly the all-zero gradient
            assert (terms.focal.size, grad.tobytes()) == (0, np.zeros_like(V).tobytes())
        # The kernel sums each prompt's terms in one matrix product, the
        # reference label by label, so the two round differently.
        np.testing.assert_allclose(grad, want_grad, rtol=1e-12, atol=1e-12)
        want_sums = [want_tally.cls_sum, want_tally.bbox_sum, want_tally.giou_sum]
        assert row == pytest.approx(want_sums, rel=1e-12)


def random_tree(world: World, rng: np.random.Generator, cohort: bool, config) -> PromptTree:
    """A root alone, or with ``cohort`` one or two expansions: frozen
    parents, earlier children still trainable and a newest cohort that
    feels the dispersion losses."""
    tree = PromptTree.from_root(normalize(random_prompts(world, rng)[0]))
    if cohort:
        expand(tree, 0, config, rng)
        if rng.random() < 0.5:
            expand(tree, tree.cohort[int(rng.integers(len(tree.cohort)))], config, rng)
    return tree


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    which=st.sampled_from(["tiny", "small", "ragged"]),
    cohort=st.booleans(),
    batch_size=st.sampled_from([1, 3, 8]),
)
# batches of one scene: the lowest scene id has no labels, so one batch of
# every epoch has no assigned label
@example(seed=1, which="tiny", cohort=True, batch_size=1)
@example(seed=2, which="ragged", cohort=False, batch_size=1)
def test_train_round_matches_reference_round(
    tiny_world, small_world, seed, which, cohort, batch_size
):
    """Epoch-ordered slices, the matrix-product gradient and the per-epoch
    loss bookkeeping keep every prompt and every reported value of the
    per-batch loop, up to the order in which terms are added; every count
    is exact."""
    rng = np.random.default_rng(seed)
    world = small_world if which == "small" else tiny_world
    if which == "ragged":
        world = ragged(world, rng)
    labels = random_labels(world, rng)
    config = replace(
        CONFIG,
        num_children=int(rng.integers(2, 6)),
        epochs_per_round=int(rng.integers(1, 4)),
        batch_size=batch_size,
    )
    tree = random_tree(world, rng, cohort, config)

    want_V, want_stats = reference_round(
        tree, labels, world, config, PARAMS, np.random.default_rng(seed)
    )
    stats = train_round(tree, labels, world, config, PARAMS, np.random.default_rng(seed))

    np.testing.assert_allclose(tree.embedding_matrix(), want_V, rtol=0, atol=1e-12)
    counts = ("label_count", "assignments_final", "misses_final")
    assert [getattr(stats, f) for f in counts] == [getattr(want_stats, f) for f in counts]
    assert stats.misses_final >= world.config.num_scenes - 1  # one stray per labelled scene
    assert len(stats.epoch_losses) == len(want_stats.epoch_losses)
    assert _floats(stats) == pytest.approx(_floats(want_stats), rel=1e-12)


def _floats(stats):
    """Every float of a ``RoundStats``, in one flat list."""
    return [x for parts in stats.epoch_losses for x in astuple(parts)] + stats.epoch_norm_error


def _matching(scenes, label_boxes, V):
    unit = V / np.linalg.norm(V, axis=1, keepdims=True)
    _, _, scores, boxes = candidate_detections(scenes, unit, PARAMS)
    m = assign_responsibility(label_boxes, scores, boxes, CONFIG.label_iou_min)
    return m.has, m.best_obj, m.responsible


def test_batch_gradient_matches_finite_differences(small_world):
    """The assembled per-batch focal gradient, wherever the matching does not
    change within the difference step (away from argmax and IoU ties)."""
    rng = np.random.default_rng(2024)
    labels = random_labels(small_world, rng)
    scenes = pack_world(small_world, CONFIG.seed)
    table = _label_table(labels, len(scenes.size))
    h = 1e-6
    checked = 0
    for _ in range(6):
        V = random_prompts(small_world, rng)
        rows = rng.permutation(len(scenes.size))[:8]
        batch = (scenes.take(rows), table[rows])

        def loss(W):
            terms = _batch_step(*batch, W, PARAMS, CONFIG)[0]
            return _tallies([terms])[0, 0] / max(terms.per_label.size, 1)

        terms, grad = _batch_step(*batch, V, PARAMS, CONFIG)
        grad = grad / max(terms.per_label.size, 1)
        here = _matching(*batch, V)
        for flat in rng.choice(V.size, size=12, replace=False):
            r, c = divmod(int(flat), V.shape[1])
            hi, lo = V.copy(), V.copy()
            hi[r, c] += h
            lo[r, c] -= h
            same = all(
                all(np.array_equal(a, b) for a, b in zip(here, _matching(*batch, W)))
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
