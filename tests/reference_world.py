"""Scalar reference for the array world generator, and a world's records.

`records` is the per-object loop that `world.generate_world` replaced: the
embeddings drawn one cluster at a time and re-normalized one object at a
time with `geometry.normalize`, and every box drawn by four scalar
`Generator.uniform` calls in `sample_box`.  It is kept here only to
cross-check the generator, which must reproduce its bytes exactly.

The package keeps a world as arrays.  Tests that read or build it one
object or one scene at a time use the records here: `pack` turns
`WorldObject`s and `Scene`s into a `World`, `scenes_of` and
`scene_objects` read them back, and `save` and `load` round-trip a world
through JSON.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from dipex.boxes import BBox
from dipex.config import _ASPECT_HI, _ASPECT_LO, _EDGE_EPS, _SIDE_RANGES
from dipex.geometry import normalize
from dipex.world import World, WorldConfig, WorldObject, _size_counts


@dataclass(frozen=True)
class Scene:
    id: int
    width: int
    height: int
    object_ids: tuple[int, ...]


def pack(config: WorldConfig, cluster_centers: np.ndarray, objects, scenes) -> World:
    """The ``World`` of per-object records.  Object ids and scene ids must
    count up from 0 in list order, because each is its row index."""
    assert [o.id for o in objects] == list(range(len(objects)))
    assert [s.id for s in scenes] == list(range(len(scenes)))
    object_ids = np.full((len(scenes), max(len(s.object_ids) for s in scenes)), -1)
    for row, scene in enumerate(scenes):
        object_ids[row, : len(scene.object_ids)] = scene.object_ids
    return World(
        config,
        cluster_centers,
        embeddings=np.stack([o.embedding for o in objects]),
        boxes=np.array([o.bbox.as_tuple() for o in objects]).reshape(-1, 4),
        cluster_ids=np.array([o.cluster_id for o in objects]),
        size_classes=np.array([o.size_class for o in objects], dtype="<U1"),
        object_ids=object_ids,
        scene_sizes=np.array([(s.width, s.height) for s in scenes]),
    )


def scenes_of(world: World) -> list[Scene]:
    """The world's scenes as records, in id order, padding dropped."""
    rows = zip(world.scene_sizes.tolist(), world.object_ids.tolist())
    return [
        Scene(sid, width, height, tuple(i for i in ids if i >= 0))
        for sid, ((width, height), ids) in enumerate(rows)
    ]


def scene_objects(world: World, scene: Scene) -> list[WorldObject]:
    return [world.objects[i] for i in scene.object_ids]


def to_dict(world: World) -> dict:
    return {
        "config": asdict(world.config),
        "cluster_centers": world.cluster_centers.tolist(),
        "objects": [
            {
                "id": o.id,
                "cluster_id": o.cluster_id,
                "embedding": o.embedding.tolist(),
                "bbox": list(o.bbox.as_tuple()),
                "size_class": o.size_class,
            }
            for o in world.objects
        ],
        "scenes": [
            {"id": s.id, "width": s.width, "height": s.height, "object_ids": list(s.object_ids)}
            for s in scenes_of(world)
        ],
    }


def from_dict(data: dict) -> World:
    raw = dict(data["config"])
    raw["size_mix"] = tuple(raw["size_mix"])
    objects = [
        WorldObject(
            id=o["id"],
            cluster_id=o["cluster_id"],
            embedding=np.asarray(o["embedding"], dtype=float),
            bbox=BBox(*o["bbox"]),
            size_class=o["size_class"],
        )
        for o in data["objects"]
    ]
    scenes = [Scene(s["id"], s["width"], s["height"], tuple(s["object_ids"])) for s in data["scenes"]]
    return pack(WorldConfig(**raw), np.asarray(data["cluster_centers"], dtype=float), objects, scenes)


def save(world: World, path: str | Path) -> None:
    Path(path).write_text(json.dumps(to_dict(world), sort_keys=True))


def load(path: str | Path) -> World:
    return from_dict(json.loads(Path(path).read_text()))


def sample_box(
    rng: np.random.Generator, size_class: str, cell: tuple[float, float, float, float]
) -> BBox:
    """One box of the given class placed uniformly inside a grid cell."""
    cx0, cy0, cw, ch = cell
    lo, hi = _SIDE_RANGES[size_class]
    limit = min(cw, ch) / math.sqrt(_ASPECT_HI)
    side = rng.uniform(lo + _EDGE_EPS, min(hi, limit) - _EDGE_EPS)
    aspect = math.exp(rng.uniform(math.log(_ASPECT_LO), math.log(_ASPECT_HI)))
    w = side * math.sqrt(aspect)
    h = side / math.sqrt(aspect)
    x0 = cx0 + rng.uniform(0.0, cw - w)
    y0 = cy0 + rng.uniform(0.0, ch - h)
    return BBox(x0, y0, x0 + w, y0 + h)


def generate_world(config: WorldConfig) -> World:
    return pack(config, *records(config))


def records(config: WorldConfig) -> tuple[np.ndarray, list[WorldObject], list[Scene]]:
    """(cluster centers, objects, scenes) of the world ``config`` describes."""
    rng = np.random.default_rng(config.seed)
    total = config.num_clusters * config.objects_per_cluster

    centers = rng.standard_normal((config.num_clusters, config.dim))
    centers /= np.linalg.norm(centers, axis=1)[:, None]

    embeddings = np.empty((total, config.dim))
    cluster_ids = np.empty(total, dtype=int)
    for c in range(config.num_clusters):
        start = c * config.objects_per_cluster
        noise = rng.standard_normal((config.objects_per_cluster, config.dim))
        raw = centers[c][None, :] + noise / config.concentration
        embeddings[start : start + config.objects_per_cluster] = raw / np.linalg.norm(
            raw, axis=1
        )[:, None]
        cluster_ids[start : start + config.objects_per_cluster] = c

    size_labels = _size_counts(config, total)
    assigned = [""] * total
    for pos, obj_id in enumerate(rng.permutation(total)):
        assigned[int(obj_id)] = size_labels[pos]

    scene_of = rng.permutation(total)
    _, cols = config.grid_shape()
    cell_w, cell_h = config.cell_size()

    boxes: dict[int, BBox] = {}
    scenes: list[Scene] = []
    for s in range(config.num_scenes):
        members = scene_of[
            s * config.objects_per_scene : (s + 1) * config.objects_per_scene
        ]
        for slot, obj_id in enumerate(members):
            r, c = divmod(slot, cols)
            cell = (c * cell_w, r * cell_h, cell_w, cell_h)
            boxes[int(obj_id)] = sample_box(rng, assigned[int(obj_id)], cell)
        scenes.append(
            Scene(s, config.width, config.height, tuple(int(i) for i in members))
        )

    objects = [
        WorldObject(
            id=i,
            cluster_id=int(cluster_ids[i]),
            embedding=normalize(embeddings[i]),
            bbox=boxes[i],
            size_class=assigned[i],
        )
        for i in range(total)
    ]
    return centers, objects, scenes
