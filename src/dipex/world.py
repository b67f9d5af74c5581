"""Synthetic ground-truth world: clustered semantic embeddings on the unit
sphere plus scenes of non-overlapping boxes in a COCO-like small/medium/large
mix.  Everything is drawn from one seeded generator so a config reproduces
the world bit for bit, and the whole thing round-trips through JSON.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, asdict
from pathlib import Path

import numpy as np

from .boxes import BBox
from .geometry import normalize

# sqrt-area sampling ranges per size class; L is additionally capped so a box
# always fits its scene cell at the worst-case 2:1 aspect ratio.
_SIDE_RANGES = {"S": (8.0, 32.0), "M": (32.0, 96.0), "L": (96.0, 256.0)}
_ASPECT_LO, _ASPECT_HI = 0.5, 2.0
_EDGE_EPS = 1e-6


@dataclass(frozen=True)
class WorldConfig:
    dim: int = 64
    num_clusters: int = 8
    objects_per_cluster: int = 40
    concentration: float = 20.0  # higher = tighter clusters
    num_scenes: int = 80
    objects_per_scene: int = 4
    width: int = 640
    height: int = 480
    size_mix: tuple[float, float, float] = (0.35, 0.40, 0.25)  # S, M, L fractions
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "size_mix", tuple(self.size_mix))
        if self.dim < 2:
            raise ValueError(f"dim must be >= 2, got {self.dim}")
        if self.num_clusters < 1 or self.objects_per_cluster < 1:
            raise ValueError("need at least one cluster and one object per cluster")
        if self.concentration <= 0.0:
            raise ValueError(f"concentration must be positive, got {self.concentration}")
        if self.num_scenes < 1 or self.objects_per_scene < 1:
            raise ValueError("need at least one scene and one object per scene")
        total = self.num_clusters * self.objects_per_cluster
        placed = self.num_scenes * self.objects_per_scene
        if total != placed:
            raise ValueError(
                f"{total} objects cannot fill {self.num_scenes} scenes of "
                f"{self.objects_per_scene} (need {placed})"
            )
        if len(self.size_mix) != 3 or any(m < 0.0 for m in self.size_mix):
            raise ValueError(f"size_mix needs three non-negative fractions: {self.size_mix}")
        if not math.isclose(sum(self.size_mix), 1.0, abs_tol=1e-9):
            raise ValueError(f"size_mix must sum to 1: {self.size_mix}")
        self._validate_fit()

    def _validate_fit(self) -> None:
        cell_w, cell_h = self.cell_size()
        limit = min(cell_w, cell_h) / math.sqrt(_ASPECT_HI)
        for cls, frac in zip(("S", "M", "L"), self.size_mix):
            if frac <= 0.0:
                continue
            lo, _ = _SIDE_RANGES[cls]
            if limit <= lo + 2 * _EDGE_EPS:
                raise ValueError(
                    f"size mix impossible: class {cls} boxes (side >= {lo}) do not "
                    f"fit scene cells of {cell_w:.0f}x{cell_h:.0f} "
                    f"({self.width}x{self.height} split for {self.objects_per_scene} objects)"
                )

    def grid_shape(self) -> tuple[int, int]:
        cols = math.ceil(math.sqrt(self.objects_per_scene))
        rows = math.ceil(self.objects_per_scene / cols)
        return rows, cols

    def cell_size(self) -> tuple[float, float]:
        rows, cols = self.grid_shape()
        return self.width / cols, self.height / rows


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


def _sample_box(
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
    """Deterministically build the world described by ``config``.

    Cluster centers are uniform on the sphere (normalized Gaussians); each
    object embedding is its center plus isotropic Gaussian noise scaled by
    1/concentration, re-normalized.  Objects are permuted into scenes and
    laid out on a per-scene grid so boxes never overlap.
    """
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
    rows, cols = config.grid_shape()
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
            boxes[int(obj_id)] = _sample_box(rng, assigned[int(obj_id)], cell)
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
