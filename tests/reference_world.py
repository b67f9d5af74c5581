"""Scalar reference for the array world generator.

This is the per-object loop that `world.generate_world` replaced: the
embeddings drawn one cluster at a time and re-normalized one object at a
time with `geometry.normalize`, and every box drawn by four scalar
`Generator.uniform` calls in `sample_box`.  It is kept here only to
cross-check the generator, which must reproduce its bytes exactly.
"""

from __future__ import annotations

import math

import numpy as np

from dipex.boxes import BBox
from dipex.geometry import normalize
from dipex.world import (
    _ASPECT_HI,
    _ASPECT_LO,
    _EDGE_EPS,
    _SIDE_RANGES,
    Scene,
    World,
    WorldConfig,
    WorldObject,
    _size_counts,
)


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
    return World(config=config, cluster_centers=centers, objects=objects, scenes=scenes)
