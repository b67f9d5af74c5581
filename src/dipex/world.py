"""Synthetic ground-truth world: clustered semantic embeddings on the unit
sphere plus scenes of non-overlapping boxes in a COCO-like small/medium/large
mix.  Everything is drawn from one seeded generator so a config reproduces
the world bit for bit.

A ``World`` is read-only arrays.  Objects are rows, and the row index is the
object id: unit embeddings, xyxy boxes, cluster ids and size classes.
Scenes are the rows of ``object_ids``, each listing its objects' ids and
padded with -1 to the widest scene; the row index is the scene id.
``generate_world`` draws and computes in arrays, in the float order of a
per-object loop (kept as the reference in tests/reference_world.py), so
both build the same bytes.  A world's packed scenes (``detector.pack_world``)
are derived once per seed and cached on it.  There is no file format for a
world: the JSON round trip lives beside that reference, in tests/.

``objects`` is the same world as one ``WorldObject`` per object, built on
first access.  Nothing in the package reads it; it stays while the
benchmark's scaling script reads embeddings through it.

``WorldConfig`` lives in ``dipex.config`` and is re-exported here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .boxes import BBox
from .config import _ASPECT_HI, _ASPECT_LO, WorldConfig
# normalize is unused here; kept because perfbench/tracing.py wraps world.normalize
from .geometry import normalize, unit_rows  # noqa: F401


@dataclass(frozen=True)
class WorldObject:
    """One object of ``World.objects``; ``embedding`` is a row of the
    world's embedding matrix."""

    id: int
    cluster_id: int
    embedding: np.ndarray
    bbox: BBox
    size_class: str


@dataclass(frozen=True, eq=False)
class World:
    config: WorldConfig
    cluster_centers: np.ndarray  # (num_clusters, dim)
    embeddings: np.ndarray       # (N, dim) unit rows
    boxes: np.ndarray            # (N, 4) xyxy
    cluster_ids: np.ndarray      # (N,)
    size_classes: np.ndarray     # (N,) "S", "M" or "L"
    object_ids: np.ndarray       # (S, W) each scene's object ids, -1 marks padding
    scene_sizes: np.ndarray      # (S, 2) width, height
    # detector.pack_world's SceneArrays, one per shift-direction seed
    _packs: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self) -> None:
        for array in (self.cluster_centers, self.embeddings, self.boxes, self.cluster_ids,
                      self.size_classes, self.object_ids, self.scene_sizes):
            array.setflags(write=False)

    @cached_property
    def objects(self) -> tuple[WorldObject, ...]:
        """One ``WorldObject`` per object, in id order, built on first access."""
        rows = zip(self.cluster_ids.tolist(), self.boxes.tolist(), self.size_classes.tolist())
        return tuple(
            WorldObject(i, cid, self.embeddings[i], BBox(*box), cls)
            for i, (cid, box, cls) in enumerate(rows)
        )


def _size_counts(config: WorldConfig, total: int) -> list[str]:
    """Exact class counts by largest remainder, then a flat list of labels."""
    raw = [m * total for m in config.size_mix]
    counts = [int(math.floor(r)) for r in raw]
    short = total - sum(counts)
    remainders = sorted(
        range(3), key=lambda i: (raw[i] - counts[i], -i), reverse=True
    )
    for i in remainders[:short]:
        counts[i] += 1
    labels: list[str] = []
    for cls, n in zip(("S", "M", "L"), counts):
        labels.extend([cls] * n)
    return labels


def generate_world(config: WorldConfig) -> World:
    """Deterministically build the world described by ``config``.

    Cluster centers are uniform on the sphere (normalized Gaussians); each
    object embedding is its center plus isotropic Gaussian noise scaled by
    1/concentration, re-normalized.  Objects are permuted into scenes and
    laid out on a per-scene grid so boxes never overlap: each draws a side
    length from its size class, a log-uniform aspect ratio and an offset
    inside its grid cell.
    """
    rng = np.random.default_rng(config.seed)
    total = config.num_clusters * config.objects_per_cluster

    centers = rng.standard_normal((config.num_clusters, config.dim))
    centers = unit_rows(centers)[0]
    cluster_ids = np.repeat(np.arange(config.num_clusters), config.objects_per_cluster)
    raw = centers[cluster_ids] + rng.standard_normal((total, config.dim)) / config.concentration
    embeddings = unit_rows(raw)[0]
    # normalize() of each row once more: one dot per row, then sqrt, then a
    # divide (a batched sum of squares would round differently)
    embeddings /= np.sqrt([row.dot(row) for row in embeddings])[:, None]

    size_class = np.empty(total, dtype="<U1")
    size_class[rng.permutation(total)] = _size_counts(config, total)

    # Box parameters in placement order (scene by scene, slot by slot), each
    # as Generator.uniform computes it, low + (high - low) * u, from the
    # stream that four uniform() calls per object would read.
    placed = rng.permutation(total)
    u = rng.random((total, 4))
    cell_w, cell_h = config.cell_size()
    sides = config.side_ranges()
    low, high = np.array([sides[cls] for cls in size_class[placed].tolist()]).T
    side = low + (high - low) * u[:, 0]
    log_lo, log_hi = math.log(_ASPECT_LO), math.log(_ASPECT_HI)
    # math.exp, not np.exp: the two differ in the last bit on some inputs
    aspect = [math.exp(a) for a in (log_lo + (log_hi - log_lo) * u[:, 1]).tolist()]
    root = np.sqrt(aspect)
    w, h = side * root, side / root
    row, col = np.divmod(np.arange(total) % config.objects_per_scene, config.grid_shape()[1])
    x0 = col * cell_w + (cell_w - w) * u[:, 2]
    y0 = row * cell_h + (cell_h - h) * u[:, 3]
    boxes = np.empty((total, 4))
    boxes[placed] = np.stack([x0, y0, x0 + w, y0 + h], axis=1)

    members = placed.reshape(config.num_scenes, config.objects_per_scene)
    sizes = np.tile([config.width, config.height], (config.num_scenes, 1))
    return World(config, centers, embeddings, boxes, cluster_ids, size_class, members, sizes)
