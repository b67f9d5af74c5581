from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from dipex.boxes import intersection_area, size_class_from_area
from dipex.world import World, WorldConfig, generate_world

import reference_world
from conftest import SMALL_WORLD


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


def test_generation_is_deterministic():
    a = generate_world(SMALL_WORLD)
    b = generate_world(SMALL_WORLD)
    assert np.array_equal(a.embeddings, b.embeddings)
    assert [o.bbox for o in a.objects] == [o.bbox for o in b.objects]
    assert a.scenes == b.scenes
    c = generate_world(replace(SMALL_WORLD, seed=999))
    assert not np.array_equal(a.embeddings, c.embeddings)


def test_every_object_placed_exactly_once(small_world):
    seen = [oid for scene in small_world.scenes for oid in scene.object_ids]
    assert sorted(seen) == list(range(len(small_world.objects)))
    for scene in small_world.scenes:
        assert len(scene.object_ids) == small_world.config.objects_per_scene


def test_boxes_inside_scene_and_disjoint(small_world):
    for scene in small_world.scenes:
        objs = small_world.scene_objects(scene)
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
    for obj in small_world.objects:
        sims = small_world.cluster_centers @ obj.embedding
        assert int(np.argmax(sims)) == obj.cluster_id


def test_size_classes_follow_mix(small_world):
    labels = [o.size_class for o in small_world.objects]
    assert all(size_class_from_area(o.bbox.area) == o.size_class for o in small_world.objects)
    total = len(labels)
    counts = {cls: labels.count(cls) for cls in ("S", "M", "L")}
    for cls, frac in zip(("S", "M", "L"), small_world.config.size_mix):
        # largest-remainder rounding keeps each class within one of its target
        assert abs(counts[cls] - frac * total) <= 1.0


def test_world_round_trips_through_json(tmp_path, small_world):
    path = tmp_path / "world.json"
    small_world.save(path)
    loaded = World.load(path)
    assert loaded.config == small_world.config
    assert np.array_equal(loaded.embeddings, small_world.embeddings)
    assert np.array_equal(loaded.cluster_centers, small_world.cluster_centers)
    assert loaded.scenes == small_world.scenes
    assert [o.bbox for o in loaded.objects] == [o.bbox for o in small_world.objects]
    assert [o.size_class for o in loaded.objects] == [
        o.size_class for o in small_world.objects
    ]


def test_scene_objects_preserve_order(small_world):
    scene = small_world.scenes[0]
    objs = small_world.scene_objects(scene)
    assert tuple(o.id for o in objs) == scene.object_ids


def _world_arrays(world):
    return (
        world.cluster_centers.tobytes(),
        np.stack([o.embedding for o in world.objects]).tobytes(),
        world.embeddings.tobytes(),
        np.array([o.bbox.as_tuple() for o in world.objects]).tobytes(),
        [o.size_class for o in world.objects],
        [o.cluster_id for o in world.objects],
        world.scenes,
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
    with pytest.raises(ValueError):
        small_world.embeddings[0, 0] = 0.0
