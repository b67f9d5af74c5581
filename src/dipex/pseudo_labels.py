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
    boxes: np.ndarray | None = None,
    groups: np.ndarray | None = None,
) -> list:
    """Gaussian soft-NMS (Bodla et al. 2017) over independent groups: in
    each group, repeatedly select the highest running score (ties to the
    earliest), rescale the rest of that group by exp(-IoU^2 / sigma), and
    drop anything whose running score falls below ``score_floor``.  No score
    ever increases and each group's first selection keeps its score.

    Takes scored boxes and returns rescored copies, or a 1-d array of scores
    with ``boxes``, their (n, 4) xyxy array, and returns (index, score) pairs
    without building any object.  ``groups`` gives each box a group id (one
    group when omitted); the result is ordered by group id, then by
    selection.  Each step selects in every live group at once and computes
    only the IoU row of each selection against its group's live boxes, so
    memory stays linear in the box count.  Only overlapping boxes are
    rescaled (a disjoint pair's factor is exactly 1), with factors from
    math.exp, so the result is bit for bit that of a one-box-at-a-time loop
    run group by group.
    """
    if sigma <= 0.0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    if boxes is None:
        boxes = np.array([d.bbox.as_tuple() for d in dets], dtype=float).reshape(-1, 4)
        scores = np.array([float(d.score) for d in dets])
        kept = soft_nms(scores, sigma, score_floor, boxes, groups)
        return [dataclasses.replace(dets[i], score=score) for i, score in kept]
    scores = np.asarray(dets, dtype=float)
    if not np.all(np.isfinite(scores)):
        raise ValueError("soft-NMS scores must be finite")
    groups = np.zeros(scores.size, dtype=int) if groups is None else np.asarray(groups)
    alive = np.argsort(groups, kind="stable")  # live boxes, by group, then input order
    running = scores[alive]
    picks, finals = [], []
    while alive.size:
        g = groups[alive]
        first = np.r_[True, g[1:] != g[:-1]]
        seg = np.cumsum(first) - 1  # each live box's group, counted from 0
        tops = np.flatnonzero(running == np.maximum.reduceat(running, np.flatnonzero(first))[seg])
        sel = tops[np.r_[True, seg[tops[1:]] != seg[tops[:-1]]]]  # first top per group
        picks.append(alive[sel])
        finals.append(running[sel])
        row = box_iou(boxes[alive[sel]][seg], boxes[alive])
        row[sel] = 0.0
        hit = np.flatnonzero(row > 0.0)
        running[hit] *= [math.exp(-v ** 2 / sigma) for v in row[hit].tolist()]
        live = running >= score_floor
        live[sel] = False
        alive, running = alive[live], running[live]
    pick = np.concatenate(picks or [np.zeros(0, dtype=int)])
    final = np.concatenate(finals or [np.zeros(0)])
    order = np.argsort(groups[pick], kind="stable")
    return list(zip(pick[order].tolist(), final[order].tolist()))


def build_pseudo_labels(
    detections_by_source: Mapping[str, Sequence],
    threshold: float = 0.2,
    sigma: float = 0.5,
    score_floor: float = 0.001,
) -> PseudoLabelSet:
    """Union detections across sources, suppress duplicates, keep confident ones.

    Inputs are any objects with scene_id/bbox/score attributes, grouped under
    a source tag.  All candidates are sorted at once by (scene, -score, box,
    source); exact duplicates (same scene, box and score) collapse to the
    first in that order, so listing a source twice changes nothing.  One
    grouped soft-NMS call then suppresses every scene.  The label threshold
    acts as the suppression floor: a candidate whose suppressed score dips
    below it is discarded before it can suppress anyone else, and survivors
    are recorded with their original scores, in sorted order.
    Idempotent: feeding the output back as a single source returns it.
    """
    if not (0.0 <= threshold < 1.0):
        raise ValueError(f"threshold out of [0, 1): {threshold}")
    sources = sorted(detections_by_source)
    dets = [det for source in sources for det in detections_by_source[source]]
    src = np.repeat(np.arange(len(sources)), [len(detections_by_source[s]) for s in sources])
    scene = np.array([int(d.scene_id) for d in dets], dtype=int)
    score = np.array([float(d.score) for d in dets])
    boxes = np.array([d.bbox.as_tuple() for d in dets], dtype=float).reshape(-1, 4)
    order = np.lexsort((src, *boxes.T[::-1], -score, scene))
    key = np.column_stack([scene, score, boxes])[order]
    order = order[np.r_[True, np.any(key[1:] != key[:-1], axis=1)][: order.size]]

    kept = soft_nms(score[order], sigma, max(score_floor, threshold), boxes[order], scene[order])
    by_scene: dict[int, list[PseudoLabel]] = {}
    for j in order[sorted(i for i, _ in kept)].tolist():
        sid = int(scene[j])
        label = PseudoLabel(sid, dets[j].bbox, float(score[j]), str(sources[src[j]]))
        by_scene.setdefault(sid, []).append(label)
    meta = {
        "threshold": threshold,
        "sigma": sigma,
        "score_floor": score_floor,
        "sources": sorted(str(s) for s in detections_by_source),
    }
    return PseudoLabelSet(by_scene={sid: tuple(v) for sid, v in by_scene.items()}, meta=meta)
