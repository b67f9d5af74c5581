"""Pseudo-label construction from detector output, and the Gaussian soft-NMS
that the label builder, the detector's prediction merging and
``eval --merge`` share.

Predictions from one or more query sources are unioned per scene, run through
Gaussian soft-NMS, and kept when their suppressed score clears the label
threshold.  Surviving labels keep their original (pre-suppression) scores:
suppression decides membership only, which makes the build a fixed point --
rebuilding from its own output reproduces it exactly.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Protocol, Sequence

import numpy as np

from .boxes import BBox, box_iou, iou  # noqa: F401  (perfbench/tracing.py counts iou calls here)


class ScoredBox(Protocol):
    bbox: BBox
    score: float


@dataclass(frozen=True)
class PseudoLabel:
    scene_id: int
    bbox: BBox
    score: float
    source: str


@dataclass
class PseudoLabelSet:
    """Per-scene pseudo ground truth plus the recipe that produced it."""

    by_scene: dict[int, tuple[PseudoLabel, ...]]
    meta: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return sum(len(v) for v in self.by_scene.values())

    def labels(self, scene_id: int) -> tuple[PseudoLabel, ...]:
        return self.by_scene.get(scene_id, ())

    def all_labels(self) -> Iterable[PseudoLabel]:
        for scene_id in sorted(self.by_scene):
            yield from self.by_scene[scene_id]

    def to_coco(self, scene_dims: Mapping[int, tuple[int, int]]) -> dict:
        """COCO annotations document; scene_dims maps scene id -> (w, h)."""
        images = [
            {"id": int(sid), "width": int(scene_dims[sid][0]), "height": int(scene_dims[sid][1])}
            for sid in sorted(self.by_scene)
        ]
        annotations = []
        for label in self.all_labels():
            x, y, w, h = label.bbox.to_xywh()
            annotations.append(
                {
                    "id": len(annotations) + 1,
                    "image_id": int(label.scene_id),
                    "category_id": 1,
                    "bbox": [float(x), float(y), float(w), float(h)],
                    "area": float(label.bbox.area),
                    "iscrowd": 0,
                    "score": float(label.score),
                }
            )
        return {
            "info": dict(self.meta),
            "images": images,
            "annotations": annotations,
            "categories": [{"id": 1, "name": "object"}],
        }


def soft_nms(
    dets: Sequence[ScoredBox] | np.ndarray,
    sigma: float = 0.5,
    score_floor: float = 0.001,
    ious: np.ndarray | None = None,
) -> list:
    """Gaussian soft-NMS (Bodla et al. 2017): repeatedly select the highest
    running score (ties to the earliest), rescale the rest by
    exp(-IoU^2 / sigma), and drop anything whose running score falls below
    ``score_floor``.  No score ever increases and the first selection keeps
    its score.

    Takes scored boxes and returns rescored copies in selection order, or a
    1-d array of scores with ``ious``, their IoU matrix, and returns the
    selection as (index, score) pairs without building any object.  Each
    selection rescales only the boxes that overlap it (a disjoint pair's
    factor is exactly 1), with factors from math.exp, so the result is bit
    for bit that of a one-box-at-a-time loop.
    """
    if sigma <= 0.0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    if ious is None:
        boxes = np.array([d.bbox.as_tuple() for d in dets], dtype=float).reshape(-1, 4)
        scores = np.array([float(d.score) for d in dets])
        kept = soft_nms(scores, sigma, score_floor, box_iou(boxes[:, None], boxes[None]))
        return [dataclasses.replace(dets[i], score=score) for i, score in kept]
    alive = np.arange(len(dets))
    running = np.array(dets, dtype=float)
    kept = []
    while alive.size:
        pos = int(np.argmax(running))
        best = alive[pos]
        kept.append((int(best), float(running[pos])))
        row = ious[best, alive]
        hit = np.flatnonzero(row > 0.0)
        running[hit] *= [math.exp(-v ** 2 / sigma) for v in row[hit].tolist()]
        live = running >= score_floor
        live[pos] = False
        alive, running = alive[live], running[live]
    return kept


def build_pseudo_labels(
    detections_by_source: Mapping[str, Sequence],
    threshold: float = 0.2,
    sigma: float = 0.5,
    score_floor: float = 0.001,
) -> PseudoLabelSet:
    """Union detections across sources, suppress duplicates, keep confident ones.

    Inputs are any objects with scene_id/bbox/score attributes, grouped under
    a source tag.  Exact duplicates (same scene, box and score) collapse to
    one record before suppression, so listing a source twice changes nothing.
    The label threshold acts as the suppression floor: a candidate whose
    suppressed score dips below it is discarded before it can suppress
    anyone else, and survivors are recorded with their original scores.
    Idempotent: feeding the output back as a single source returns it.
    """
    if not (0.0 <= threshold < 1.0):
        raise ValueError(f"threshold out of [0, 1): {threshold}")
    per_scene: dict[int, list[tuple[float, BBox, str]]] = {}
    seen: set[tuple[int, tuple, float]] = set()
    for source in sorted(detections_by_source):
        for det in detections_by_source[source]:
            key = (int(det.scene_id), det.bbox.as_tuple(), float(det.score))
            if key in seen:
                continue
            seen.add(key)
            per_scene.setdefault(int(det.scene_id), []).append(
                (float(det.score), det.bbox, str(source))
            )

    floor = max(score_floor, threshold)
    by_scene: dict[int, tuple[PseudoLabel, ...]] = {}
    for scene_id in sorted(per_scene):
        entries = sorted(
            per_scene[scene_id], key=lambda e: (-e[0], e[1].as_tuple(), e[2])
        )
        boxes = np.array([box.as_tuple() for _, box, _ in entries])
        kept = soft_nms(
            np.array([score for score, _, _ in entries]),
            sigma,
            floor,
            box_iou(boxes[:, None], boxes[None]),
        )
        labels = [
            PseudoLabel(scene_id, entries[i][1], entries[i][0], entries[i][2])
            for i in sorted(i for i, _ in kept)
        ]
        if labels:
            by_scene[scene_id] = tuple(labels)
    meta = {
        "threshold": threshold,
        "sigma": sigma,
        "score_floor": score_floor,
        "sources": sorted(str(s) for s in detections_by_source),
    }
    return PseudoLabelSet(by_scene=by_scene, meta=meta)
