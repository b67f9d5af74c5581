"""Synthetic ground-truth world: clustered semantic embeddings on the unit
sphere plus scenes of non-overlapping boxes in a COCO-like small/medium/large
mix.  Everything is drawn from one seeded generator so a config reproduces
the world bit for bit, and the whole thing round-trips through JSON.

``generate_world`` draws and computes in arrays, in the float order of a
per-object loop (kept as the reference in tests/reference_world.py), so
both build the same bytes.  A world's embedding matrix and its packed
scenes (``detector.pack_world``) are derived once and cached on it.

``WorldConfig`` lives in ``dipex.config`` and is re-exported here.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, asdict
from pathlib import Path

import numpy as np

from .boxes import BBox
from .config import _ASPECT_HI, _ASPECT_LO, _EDGE_EPS, _SIDE_RANGES, WorldConfig
# unused here; kept because perfbench/tracing.py wraps world.normalize
from .geometry import normalize  # noqa: F401


@dataclass(frozen=True)
class WorldObject:
    id: int
    cluster_id: int
    embedding: np.ndarray
    bbox: BBox
    size_class: str


@dataclass(frozen=True)
class Scene:
    id: int
    width: int
    height: int
    object_ids: tuple[int, ...]


@dataclass
class World:
    config: WorldConfig
    cluster_centers: np.ndarray  # (num_clusters, dim)
    objects: list[WorldObject]
    scenes: list[Scene]
    _embeddings: np.ndarray | None = field(default=None, repr=False)
    # detector.pack_world's SceneArrays, one per shift-direction seed
    _packs: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def embeddings(self) -> np.ndarray:
        """(num_objects, dim) matrix, row index == object id."""
        if self._embeddings is None:
            self._embeddings = np.stack([o.embedding for o in self.objects])
        return self._embeddings

    def scene_objects(self, scene: Scene) -> list[WorldObject]:
        return [self.objects[i] for i in scene.object_ids]

    def to_dict(self) -> dict:
        return {
            "config": asdict(self.config),
            "cluster_centers": self.cluster_centers.tolist(),
            "objects": [
                {
                    "id": o.id,
                    "cluster_id": o.cluster_id,
                    "embedding": o.embedding.tolist(),
                    "bbox": list(o.bbox.as_tuple()),
                    "size_class": o.size_class,
                }
                for o in self.objects
            ],
            "scenes": [
                {
                    "id": s.id,
                    "width": s.width,
                    "height": s.height,
                    "object_ids": list(s.object_ids),
                }
                for s in self.scenes
            ],
        }

    @staticmethod
    def from_dict(data: dict) -> "World":
        raw = dict(data["config"])
        raw["size_mix"] = tuple(raw["size_mix"])
        config = WorldConfig(**raw)
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
        scenes = [
            Scene(s["id"], s["width"], s["height"], tuple(s["object_ids"]))
            for s in data["scenes"]
        ]
        return World(
            config=config,
            cluster_centers=np.asarray(data["cluster_centers"], dtype=float),
            objects=objects,
            scenes=scenes,
        )

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), sort_keys=True))

    @staticmethod
    def load(path: str | Path) -> "World":
        return World.from_dict(json.loads(Path(path).read_text()))


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
    centers /= np.linalg.norm(centers, axis=1)[:, None]
    cluster_ids = np.repeat(np.arange(config.num_clusters), config.objects_per_cluster)
    raw = centers[cluster_ids] + rng.standard_normal((total, config.dim)) / config.concentration
    embeddings = raw / np.linalg.norm(raw, axis=1)[:, None]
    # normalize() of each row once more: one dot per row, then sqrt, then a
    # divide (a batched sum of squares would round differently)
    embeddings /= np.sqrt([row.dot(row) for row in embeddings])[:, None]
    embeddings.setflags(write=False)

    size_class = np.empty(total, dtype="<U1")
    size_class[rng.permutation(total)] = _size_counts(config, total)

    # Box parameters in placement order (scene by scene, slot by slot), each
    # as Generator.uniform computes it, low + (high - low) * u, from the
    # stream that four uniform() calls per object would read.
    placed = rng.permutation(total)
    u = rng.random((total, 4))
    cell_w, cell_h = config.cell_size()
    limit = min(cell_w, cell_h) / math.sqrt(_ASPECT_HI)
    sides = {
        cls: (lo + _EDGE_EPS, min(hi, limit) - _EDGE_EPS) for cls, (lo, hi) in _SIDE_RANGES.items()
    }
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

    attributes = zip(cluster_ids.tolist(), boxes.tolist(), size_class.tolist())
    objects = [
        WorldObject(id=i, cluster_id=cid, embedding=embeddings[i], bbox=BBox(*box), size_class=cls)
        for i, (cid, box, cls) in enumerate(attributes)
    ]
    members = placed.reshape(config.num_scenes, config.objects_per_scene).tolist()
    scenes = [Scene(s, config.width, config.height, tuple(ids)) for s, ids in enumerate(members)]
    return World(config, centers, objects, scenes, _embeddings=embeddings)
