import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dipex.boxes import BBox
from dipex.detector import (
    DetectorParams,
    QueryMode,
    VocabularyConfig,
    build_vocabulary,
    candidate_detections,
    detect_each,
    detect_world,
    detections_to_coco,
    overlap_penalty,
    pack_world,
    sigmoid,
)
from dipex.geometry import angular_distance, normalize
from dipex.world import Scene, World

import reference_detector as ref
from conftest import as_arrays, rows_of
from reference_detector import clip, noisy_box, pair_scores, raw_logit


def detect_scene(scene, prompts, mode, params, world, seed=0):
    """The detector's output for one scene."""
    return detect_world(world, prompts, mode, params, seed)[scene.id]


def object_prompts(world, scene):
    """One prompt aimed exactly at each object in the scene."""
    return [(i, obj.embedding) for i, obj in enumerate(world.scene_objects(scene))]


def test_params_validation():
    with pytest.raises(ValueError):
        DetectorParams(logit_scale=0.0)
    with pytest.raises(ValueError):
        DetectorParams(overlap_threshold=0.0)
    with pytest.raises(ValueError):
        DetectorParams(score_threshold=1.0)
    with pytest.raises(ValueError):
        DetectorParams(max_detections=0)


def test_sigmoid_frozen_value():
    assert sigmoid(5.0) == pytest.approx(0.9933071490757153, abs=1e-12)
    assert sigmoid(0.0) == 0.5


def test_raw_logit_closed_forms(default_params):
    e0 = np.array([1.0, 0.0, 0.0])
    e1 = np.array([0.0, 1.0, 0.0])
    assert raw_logit(e0, e0, default_params) == pytest.approx(5.5)
    assert raw_logit(e0, e1, default_params) == pytest.approx(-4.5)
    # normalization happens inside
    assert raw_logit(3.0 * e0, 0.1 * e0, default_params) == pytest.approx(5.5)


def test_overlap_penalty_closed_forms(default_params):
    e0 = np.array([1.0, 0.0])
    e1 = np.array([0.0, 1.0])
    assert overlap_penalty([e0], default_params) == 1.0
    # orthogonal prompts sit outside the 57 degree interference zone
    assert overlap_penalty([e0, e1], default_params) == 1.0
    want = math.exp(-2.0 * (1.0 - math.cos(math.radians(57.0))))
    assert overlap_penalty([e0, e0], default_params) == pytest.approx(want, abs=1e-12)
    theta = math.radians(30.0)
    pair = [e0, np.array([math.cos(theta), math.sin(theta)])]
    want = math.exp(-2.0 * (math.cos(theta) - math.cos(math.radians(57.0))))
    assert overlap_penalty(pair, default_params) == pytest.approx(want, abs=1e-12)


def test_noisy_box_magnitude_and_determinism(small_world, default_params):
    scene = small_world.scenes[0]
    obj = small_world.scene_objects(scene)[0]
    exact = noisy_box(obj.bbox, 1.0, scene, obj.id, default_params, seed=0)
    assert exact == clip(obj.bbox, scene.width, scene.height)
    moved = noisy_box(obj.bbox, 0.5, scene, obj.id, default_params, seed=0)
    again = noisy_box(obj.bbox, 0.5, scene, obj.id, default_params, seed=0)
    assert moved == again
    other_seed = noisy_box(obj.bbox, 0.5, scene, obj.id, default_params, seed=1)
    assert other_seed != moved
    # displacement magnitude before clipping
    dx = moved.x_min - obj.bbox.x_min
    dy = moved.y_min - obj.bbox.y_min
    want = default_params.box_noise * 0.5 * math.sqrt(obj.bbox.area)
    if 0.0 < moved.x_min and moved.x_max < scene.width and 0.0 < moved.y_min:
        assert math.hypot(dx, dy) == pytest.approx(want, rel=1e-9)


def test_pair_scores_matches_scalar_logits(small_world, default_params):
    scene = small_world.scenes[0]
    prompts = object_prompts(small_world, scene)
    ids, logits, scores = pair_scores(scene, prompts, default_params, small_world)
    objs = small_world.scene_objects(scene)
    assert logits.shape == (len(prompts), len(objs))
    for pi, (pid, vec) in enumerate(prompts):
        for oi, obj in enumerate(objs):
            assert logits[pi, oi] == pytest.approx(
                raw_logit(vec, obj.embedding, default_params), abs=1e-12
            )
    assert np.allclose(scores, sigmoid(logits))


def test_candidate_detections_keep_every_pair(small_world, default_params):
    scene = small_world.scenes[0]
    prompts = object_prompts(small_world, scene)
    # aim one prompt away from everything so some scores fall below threshold
    prompts.append((len(prompts), -small_world.scene_objects(scene)[0].embedding))
    unit = np.stack([normalize(vec) for _, vec in prompts])
    scenes = pack_world(small_world, seed=0)
    _, _, scores, boxes = candidate_detections(scenes, unit, default_params)
    shape = (len(small_world.scenes), len(prompts), len(scene.object_ids))
    assert scores.shape == shape and boxes.shape == shape + (4,)
    # candidates ignore the score threshold on purpose
    assert scores[0].min() < default_params.score_threshold


def test_duplicate_prompt_ids_rejected(small_world, default_params):
    scene = small_world.scenes[0]
    vec = small_world.objects[0].embedding
    for mode in QueryMode:
        with pytest.raises(ValueError):
            detect_world(small_world, [(1, vec), (1, vec)], mode, default_params)
    with pytest.raises(ValueError):
        detect_each(small_world, [(1, vec), (1, vec)], default_params)


def test_single_prompt_modes_agree(small_world, default_params):
    scene = small_world.scenes[0]
    prompts = [(0, small_world.scene_objects(scene)[0].embedding)]
    qm = detect_scene(scene, prompts, QueryMode.QUERY_MERGING, default_params, small_world)
    pm = detect_scene(
        scene, prompts, QueryMode.PREDICTION_MERGING, default_params, small_world
    )
    assert np.array_equal(qm.boxes, pm.boxes)
    assert qm.scores == pytest.approx(pm.scores, abs=1e-12)


def test_query_merging_applies_penalty_uniformly(small_world, default_params):
    scene = small_world.scenes[0]
    vec = small_world.scene_objects(scene)[0].embedding
    solo = detect_scene(
        scene, [(0, vec)], QueryMode.QUERY_MERGING, default_params, small_world
    )
    twin = detect_scene(
        scene, [(0, vec), (1, vec)], QueryMode.QUERY_MERGING, default_params, small_world
    )
    penalty = overlap_penalty([vec, vec], default_params)
    # each object is reported once, its solo score scaled by the penalty
    scaled = solo.scores * penalty
    assert twin.scores == pytest.approx(scaled[scaled >= default_params.score_threshold], abs=1e-12)


def test_prediction_merging_suppresses_duplicates(small_world, default_params):
    scene = small_world.scenes[0]
    vec = small_world.scene_objects(scene)[0].embedding
    dets = detect_scene(
        scene, [(0, vec), (1, vec)], QueryMode.PREDICTION_MERGING,
        default_params, small_world,
    )
    # the duplicate prompt yields an identical box; soft-NMS decays it by e^-2
    per_box = {}
    for _, box, score in rows_of({0: dets})[0]:
        per_box.setdefault(box, []).append(score)
    for scores in per_box.values():
        if len(scores) == 2:
            assert scores[1] == pytest.approx(scores[0] * math.exp(-2.0), rel=1e-9)


def test_detections_sorted_thresholded_capped(small_world, default_params):
    scene = small_world.scenes[0]
    prompts = object_prompts(small_world, scene)
    for mode in QueryMode:
        dets = detect_scene(scene, prompts, mode, default_params, small_world)
        scores = dets.scores.tolist()
        assert scores == sorted(scores, reverse=True)
        assert all(s >= default_params.score_threshold for s in scores)
        assert len(dets) <= default_params.max_detections


def test_detect_world_covers_every_scene(small_world, default_params):
    prompts = [(0, small_world.cluster_centers[0])]
    by_scene = detect_world(
        small_world, prompts, QueryMode.PREDICTION_MERGING, default_params
    )
    assert sorted(by_scene) == [s.id for s in small_world.scenes]
    assert all((d.scene_ids == sid).all() for sid, d in by_scene.items())
    rerun = detect_world(
        small_world, prompts, QueryMode.PREDICTION_MERGING, default_params
    )
    assert rows_of(by_scene) == rows_of(rerun)


def test_detections_to_coco_shape(small_world, default_params):
    prompts = [(0, small_world.cluster_centers[0])]
    by_scene = detect_world(
        small_world, prompts, QueryMode.PREDICTION_MERGING, default_params
    )
    records = detections_to_coco(by_scene)
    assert len(records) == sum(len(v) for v in by_scene.values())
    ids = [r["image_id"] for r in records]
    assert ids == sorted(ids)
    rec = records[0]
    assert set(rec) == {"image_id", "category_id", "bbox", "score"}
    x, y, w, h = rec["bbox"]
    assert w > 0 and h > 0


def test_vocabulary_validation():
    with pytest.raises(ValueError):
        VocabularyConfig(style="scattered")
    with pytest.raises(ValueError):
        VocabularyConfig(min_separation=math.pi)


def test_dispersed_vocabulary_enforces_separation(small_world):
    for seed in range(5):
        config = VocabularyConfig(style="dispersed", seed=seed)
        vocab = build_vocabulary(small_world, config)
        assert len(vocab) >= 1
        for v in vocab:
            assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-9)
        for i in range(len(vocab)):
            for j in range(i + 1, len(vocab)):
                assert angular_distance(vocab[i], vocab[j]) >= config.min_separation - 1e-9


def test_overlapping_vocabulary_forces_interference(small_world, default_params):
    config = VocabularyConfig(style="overlapping", seed=3)
    vocab = build_vocabulary(small_world, config)
    assert len(vocab) % 2 == 0
    # twins sit within duplicate_angle of their source
    for k in range(0, len(vocab), 2):
        assert angular_distance(vocab[k], vocab[k + 1]) <= config.duplicate_angle + 1e-9
    assert overlap_penalty(vocab, default_params) < 1.0


def test_vocabulary_deterministic(small_world):
    a = build_vocabulary(small_world, VocabularyConfig(seed=11))
    b = build_vocabulary(small_world, VocabularyConfig(seed=11))
    assert len(a) == len(b)
    for va, vb in zip(a, b):
        assert np.array_equal(va, vb)


def test_vocabulary_without_noise_keeps_centers(small_world):
    config = VocabularyConfig(
        noise_angle=0.0, include_centroid=False, min_separation=0.0, seed=0
    )
    vocab = build_vocabulary(small_world, config)
    assert len(vocab) == small_world.config.num_clusters
    for vec, center in zip(vocab, small_world.cluster_centers):
        assert np.allclose(vec, normalize(center), atol=1e-12)


def test_detect_world_matches_detect_scene(small_world, default_params):
    # close prompts, so query merging applies a penalty below 1
    base = small_world.cluster_centers[0]
    nearby = normalize(base + 0.3 * small_world.cluster_centers[1])
    prompts = [(0, base), (3, nearby), (5, base * 2.0)]
    for mode in QueryMode:
        by_scene = detect_world(small_world, prompts, mode, default_params, seed=4)
        want = ref.detect_world(small_world, prompts, mode, default_params, seed=4)
        assert rows_of(by_scene) == rows_of({sid: as_arrays(d) for sid, d in want.items()})


def _prompt_set(world, rng, n, ties):
    """n prompts near the cluster centres in shuffled id order; with ``ties``,
    some are exact copies, which forces score ties."""
    centers = world.cluster_centers[rng.integers(0, len(world.cluster_centers), size=n)]
    vecs = centers + rng.normal(scale=rng.uniform(0.0, 0.8), size=centers.shape)
    for k in range(1, n):
        if ties and rng.random() < 0.2:
            vecs[k] = vecs[int(rng.integers(0, k))]
    ids = rng.permutation(3 * n)[:n]
    return [(int(pid), vec) for pid, vec in zip(ids, vecs)]


def _random_params(rng):
    return DetectorParams(
        score_threshold=float(rng.choice([0.0, 0.05, 0.25, 0.5])),
        max_detections=int(rng.choice([1, 3, 100])),
        nms_sigma=float(rng.choice([0.1, 0.5, 2.0])),
        nms_floor=float(rng.choice([0.001, 0.3])),
        box_noise=float(rng.choice([0.15, 3.0, 8.0])),
    )


def _detector_runs(world, prompts, params, seed):
    """(ours, reference) rows for both query modes and for detect_each."""
    pairs = [
        (detect_world(world, prompts, mode, params, seed), ref.detect_world(world, prompts, mode, params, seed))
        for mode in QueryMode
    ]
    pairs.append((detect_each(world, prompts, params, seed), ref.label_sources(prompts, world, params, seed)))
    return [(rows_of(ours), rows_of({key: as_arrays(d) for key, d in want.items()})) for ours, want in pairs]


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), which=st.sampled_from(["tiny", "small"]))
def test_detector_matches_scalar_reference(tiny_world, small_world, seed, which):
    """detect_world in both modes, and detect_each, equal the pair-by-pair
    detector, under random thresholds, floors, caps and exact score ties."""
    rng = np.random.default_rng(seed)
    world = tiny_world if which == "tiny" else small_world
    if rng.random() < 0.5:
        world = _crowded(world, rng)
    prompts = _prompt_set(world, rng, int(rng.integers(1, 12)), ties=True)
    for ours, want in _detector_runs(world, prompts, _random_params(rng), int(rng.integers(0, 100))):
        assert ours == want


def _crowded(world, rng):
    """The same world with every box moved into one corner, so that one
    prompt's candidates overlap each other and soft-NMS has work to do."""
    objects = []
    for obj in world.objects:
        x, y = rng.uniform(0.0, 60.0, size=2)
        w, h = rng.uniform(10.0, 80.0, size=2)
        objects.append(dataclasses.replace(obj, bbox=BBox(x, y, x + w, y + h)))
    return World(world.config, world.cluster_centers, objects, world.scenes)


def _ragged(world, rng):
    """The same world with objects dropped from some scenes."""
    scenes = [
        Scene(s.id, s.width, s.height, s.object_ids[: int(rng.integers(1, len(s.object_ids) + 1))])
        for s in world.scenes
    ]
    return World(world.config, world.cluster_centers, world.objects, scenes)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_detector_masks_padded_objects(small_world, seed):
    """On scenes of unequal size the detector reports the reference's
    detections, none for padding.  The reference multiplies each scene's
    narrower object matrix, which BLAS may round differently, so scores and
    boxes agree to 1e-12 rather than bit for bit (and no ties are forced)."""
    rng = np.random.default_rng(seed)
    world = _ragged(small_world, rng)
    prompts = _prompt_set(world, rng, int(rng.integers(1, 12)), ties=False)
    for ours, want in _detector_runs(world, prompts, _random_params(rng), 0):
        assert ours.keys() == want.keys()
        for key in ours:
            got, ref_rows = ours[key], want[key]
            assert [r[0] for r in got] == [r[0] for r in ref_rows]
            for (_, box, score), (_, ref_box, ref_score) in zip(got, ref_rows):
                assert score == pytest.approx(ref_score, rel=1e-12, abs=1e-12)
                assert box == pytest.approx(ref_box, rel=1e-12)
