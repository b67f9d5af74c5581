import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from dipex.config import _ASPECT_HI, _EDGE_EPS, _SIDE_RANGES
from dipex.detector import QueryMode, detect_each, detect_world, pack_world
from dipex.evaluation import GroundTruthSet, evaluate
from dipex.expansion import ExpansionConfig, PromptTree, bootstrap_labels, train_round
from dipex.geometry import normalize
from dipex.world import WorldConfig, WorldObject, generate_world

import reference_world
from conftest import SMALL_WORLD, TINY_WORLD
from reference_eval import size_bucket
from reference_geometry import intersection_area


def test_config_validation():
    with pytest.raises(ValueError):
        WorldConfig(dim=1)
    with pytest.raises(ValueError):
        WorldConfig(num_clusters=3, objects_per_cluster=5, num_scenes=4, objects_per_scene=4)
    with pytest.raises(ValueError):
        WorldConfig(size_mix=(0.5, 0.5, 0.5))
    with pytest.raises(ValueError):
        WorldConfig(concentration=0.0)
    # large boxes cannot fit when the per-object cell is tiny
    with pytest.raises(ValueError):
        WorldConfig(
            num_clusters=2,
            objects_per_cluster=50,
            num_scenes=4,
            objects_per_scene=25,
            width=320,
            height=240,
            size_mix=(0.0, 0.0, 1.0),
        )


@settings(max_examples=200, deadline=None)
@given(
    width=st.integers(1, 600),
    height=st.integers(1, 600),
    objects_per_scene=st.integers(1, 16),
    size_mix=st.sampled_from([(1, 0, 0), (0, 1, 0), (0, 0, 1), (0.35, 0.4, 0.25), (0.5, 0.5, 0)]),
)
def test_config_accepted_exactly_when_every_used_class_has_room(width, height, objects_per_scene, size_mix):
    """A world config is accepted exactly when every size class with a
    positive share has a non-empty range of sides: its sqrt-area range, kept
    ``_EDGE_EPS`` inside both ends, under the side of the widest-aspect box
    that fits a cell of the scene's grid."""
    cols = math.ceil(math.sqrt(objects_per_scene))
    rows = math.ceil(objects_per_scene / cols)
    cap = min(width / cols, height / rows) / math.sqrt(_ASPECT_HI)
    used = [share > 0 for share in size_mix]
    room = all(
        min(hi, cap) - _EDGE_EPS > lo + _EDGE_EPS for (lo, hi), u in zip(_SIDE_RANGES.values(), used) if u
    )
    kwargs = dict(
        num_clusters=1, objects_per_cluster=objects_per_scene, num_scenes=1,
        objects_per_scene=objects_per_scene, width=width, height=height, size_mix=size_mix,
    )
    if room:
        ranges = WorldConfig(**kwargs).side_ranges()
        assert all(high > low for (low, high), u in zip(ranges.values(), used) if u)
    else:
        with pytest.raises(ValueError, match="size mix impossible"):
            WorldConfig(**kwargs)


def test_generation_is_deterministic():
    a = generate_world(SMALL_WORLD)
    b = generate_world(SMALL_WORLD)
    assert np.array_equal(a.embeddings, b.embeddings)
    assert np.array_equal(a.boxes, b.boxes)
    assert np.array_equal(a.object_ids, b.object_ids)
    c = generate_world(replace(SMALL_WORLD, seed=999))
    assert not np.array_equal(a.embeddings, c.embeddings)


def test_every_object_placed_exactly_once(small_world):
    config = small_world.config
    assert small_world.object_ids.shape == (config.num_scenes, config.objects_per_scene)
    assert sorted(small_world.object_ids.ravel().tolist()) == list(range(len(small_world.boxes)))


def test_boxes_inside_scene_and_disjoint(small_world):
    for scene in reference_world.scenes_of(small_world):
        objs = reference_world.scene_objects(small_world, scene)
        for obj in objs:
            assert 0.0 <= obj.bbox.x_min <= obj.bbox.x_max <= scene.width
            assert 0.0 <= obj.bbox.y_min <= obj.bbox.y_max <= scene.height
        for i in range(len(objs)):
            for j in range(i + 1, len(objs)):
                assert intersection_area(objs[i].bbox, objs[j].bbox) == 0.0


def test_embeddings_unit_norm_and_clustered(small_world):
    norms = np.linalg.norm(small_world.embeddings, axis=1)
    assert np.allclose(norms, 1.0, atol=1e-9)
    # with high concentration every member sits closest to its own center
    sims = small_world.embeddings @ small_world.cluster_centers.T
    assert np.array_equal(np.argmax(sims, axis=1), small_world.cluster_ids)


def test_size_classes_follow_mix(small_world):
    labels = small_world.size_classes.tolist()
    x0, y0, x1, y1 = small_world.boxes.T
    assert [size_bucket(area) for area in ((x1 - x0) * (y1 - y0)).tolist()] == labels
    total = len(labels)
    counts = {cls: labels.count(cls) for cls in ("S", "M", "L")}
    for cls, frac in zip(("S", "M", "L"), small_world.config.size_mix):
        # largest-remainder rounding keeps each class within one of its target
        assert abs(counts[cls] - frac * total) <= 1.0


def test_world_round_trips_through_json(tmp_path, small_world):
    path = tmp_path / "world.json"
    reference_world.save(small_world, path)
    loaded = reference_world.load(path)
    assert loaded.config == small_world.config
    assert _world_arrays(loaded) == _world_arrays(small_world)


def test_scene_objects_preserve_order(small_world):
    scene = reference_world.scenes_of(small_world)[0]
    objs = reference_world.scene_objects(small_world, scene)
    assert [o.id for o in objs] == small_world.object_ids[0].tolist() == list(scene.object_ids)


def _world_arrays(world):
    return (
        world.cluster_centers.tobytes(),
        world.embeddings.shape,
        world.embeddings.tobytes(),
        world.boxes.shape,
        world.boxes.tobytes(),
        world.size_classes.tolist(),
        world.cluster_ids.tolist(),
        world.object_ids.tolist(),
        world.scene_sizes.tolist(),
    )


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(2, 48),
    num_clusters=st.integers(1, 4),
    scenes_per_cluster=st.integers(1, 4),
    objects_per_scene=st.integers(1, 12),
    concentration=st.sampled_from([0.5, 5.0, 20.0]),
    weights=st.tuples(*[st.integers(0, 5)] * 3).filter(any),
)
def test_generate_world_matches_scalar_reference(
    seed, dim, num_clusters, scenes_per_cluster, objects_per_scene, concentration, weights
):
    """The array generator reproduces the per-object loop byte for byte:
    embeddings, boxes, size classes and scene membership."""
    try:
        config = WorldConfig(
            dim=dim,
            num_clusters=num_clusters,
            objects_per_cluster=scenes_per_cluster * objects_per_scene,
            concentration=concentration,
            num_scenes=num_clusters * scenes_per_cluster,
            objects_per_scene=objects_per_scene,
            size_mix=tuple(w / sum(weights) for w in weights),
            seed=seed,
        )
    except ValueError:  # the mix's boxes do not fit the cells
        assume(False)
    assert _world_arrays(generate_world(config)) == _world_arrays(reference_world.generate_world(config))


def test_generated_embeddings_are_shared_and_read_only(small_world):
    assert all(np.shares_memory(o.embedding, small_world.embeddings) for o in small_world.objects)
    for array in (small_world.cluster_centers, small_world.embeddings, small_world.boxes,
                  small_world.cluster_ids, small_world.size_classes, small_world.object_ids,
                  small_world.scene_sizes):
        with pytest.raises(ValueError):
            array[(0,) * array.ndim] = 0


def test_object_view_equals_reference_records(small_world):
    _, objects, _ = reference_world.records(small_world.config)
    for got, want in zip(small_world.objects, objects, strict=True):
        for f in fields(WorldObject):
            a, b = getattr(got, f.name), getattr(want, f.name)
            assert type(a) is type(b)
            assert a.tobytes() == b.tobytes() if f.name == "embedding" else a == b


def test_no_package_path_builds_the_object_view(default_params):
    """Detection, ground truth, evaluation and training read the world's
    arrays; only the benchmark's scaling script builds ``objects``."""
    world = generate_world(TINY_WORLD)
    pack_world(world, seed=0)
    gts = GroundTruthSet.from_world(world)
    prompts = list(enumerate(world.cluster_centers))
    for mode in QueryMode:
        evaluate(detect_world(world, prompts, mode, default_params), gts)
    detect_each(world, prompts, default_params, 0)
    config = ExpansionConfig(epochs_per_round=1)
    labels = bootstrap_labels(list(world.cluster_centers), world, config, default_params)
    tree = PromptTree.from_root(normalize(world.cluster_centers.sum(axis=0)))
    train_round(tree, labels, world, config, default_params, np.random.default_rng(0))
    assert "objects" not in vars(world)
    assert world.objects and "objects" in vars(world)
