"""Pseudo-label construction from detector output, and the Gaussian soft-NMS
that the label builder, the detector's prediction merging and
``eval --merge`` share.

Predictions from query sources, as ``ScoredBoxes`` arrays, are unioned, run
through Gaussian soft-NMS, and kept when their suppressed score clears the
label threshold.  Surviving labels keep their original (pre-suppression)
scores: suppression decides membership only, which makes the build a fixed
point -- rebuilding from its own output reproduces it exactly.  Labels stay
arrays up to their COCO file.

``annotations_to_coco`` writes every COCO annotations document, for labels
(``PseudoLabelSet.to_coco``) and for ground truth
(``evaluation.GroundTruthSet.to_coco``).  It lives here so that
``evaluation`` can import it without an import cycle.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .boxes import box_iou, iou  # noqa: F401  (perfbench/tracing.py counts iou calls here)


@dataclass(frozen=True, eq=False)
class ScoredBoxes:
    """Scored boxes as parallel arrays, one row per box: the one form of
    detections, labels and label sources."""

    scene_ids: np.ndarray  # (n,) int
    scores: np.ndarray     # (n,)
    boxes: np.ndarray      # (n, 4) xyxy

    def __len__(self) -> int:
        return self.scores.size

    @staticmethod
    def concat(parts: Sequence["ScoredBoxes"]) -> "ScoredBoxes":
        """The rows of ``parts``, one part after another."""
        return ScoredBoxes(
            np.concatenate([np.zeros(0, dtype=int)] + [part.scene_ids for part in parts]),
            np.concatenate([np.zeros(0)] + [part.scores for part in parts]),
            np.concatenate([np.zeros((0, 4))] + [part.boxes for part in parts]),
        )

    def take(self, index: np.ndarray | slice) -> "ScoredBoxes":
        """The rows at ``index`` (integers, a boolean mask or a slice), in its
        order."""
        return ScoredBoxes(self.scene_ids[index], self.scores[index], self.boxes[index])

    def split(self, scene_ids: Sequence[int] | None = None) -> dict[int, "ScoredBoxes"]:
        """One record per scene of the ascending ``scene_ids`` (by default,
        the scenes that have rows), empty or not, from rows already ordered
        by scene; the rows keep their order."""
        if scene_ids is None:
            scene_ids = sorted(set(self.scene_ids.tolist()))
        starts = np.searchsorted(self.scene_ids, scene_ids).tolist()
        ends = np.searchsorted(self.scene_ids, scene_ids, side="right").tolist()
        return {
            sid: self.take(slice(a, b))
            for sid, a, b in zip(np.asarray(scene_ids).tolist(), starts, ends)
        }


@dataclass(frozen=True, eq=False)
class PseudoLabelSet(ScoredBoxes):
    """Pseudo ground truth, each label's source name, and the recipe that
    produced it; ``build_pseudo_labels`` orders labels by (scene, -score,
    box, source)."""

    sources: np.ndarray    # (n,) str
    meta: dict = field(default_factory=dict)

    def to_coco(self, scene_dims: Mapping[int, tuple[int, int]]) -> dict:
        """COCO annotations document listing every scene of ``scene_dims``
        (scene id -> (w, h)), labelled or not, with each label's score and
        the build settings as ``info``."""
        b = self.boxes
        areas = (b[:, 2] - b[:, 0]) * (b[:, 3] - b[:, 1])
        crowd = np.zeros(len(self), dtype=bool)
        doc = annotations_to_coco(scene_dims, self.scene_ids, b, areas, crowd, self.scores)
        return {"info": dict(self.meta), **doc}


def annotations_to_coco(
    scene_dims: Mapping[int, tuple[int, int]],
    scene_ids: np.ndarray,
    boxes: np.ndarray,
    areas: np.ndarray,
    crowd: np.ndarray,
    scores: np.ndarray | None = None,
) -> dict:
    """COCO annotations document: one image per scene of ``scene_dims``
    (scene id -> (w, h)) in id order, and one class-agnostic annotation per
    row of the parallel arrays (xyxy ``boxes``, written as xywh), numbered
    from 1 in row order, with a ``score`` when ``scores`` is given."""
    images = [
        {"id": int(sid), "width": int(w), "height": int(h)}
        for sid, (w, h) in sorted(scene_dims.items())
    ]
    corner, size = boxes[:, :2].tolist(), (boxes[:, 2:] - boxes[:, :2]).tolist()
    rows = zip(scene_ids.tolist(), corner, size, areas.tolist(), crowd.tolist())
    annotations = [
        {
            "id": k,
            "image_id": sid,
            "category_id": 1,
            "bbox": [x, y, w, h],
            "area": area,
            "iscrowd": int(iscrowd),
        }
        for k, (sid, (x, y), (w, h), area, iscrowd) in enumerate(rows, start=1)
    ]
    if scores is not None:
        for annotation, score in zip(annotations, scores.tolist()):
            annotation["score"] = score
    categories = [{"id": 1, "name": "object"}]
    return {"images": images, "annotations": annotations, "categories": categories}


def soft_nms(
    dets: Sequence | np.ndarray,
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
    sources: Mapping[str, ScoredBoxes],
    threshold: float = 0.2,
    sigma: float = 0.5,
    score_floor: float = 0.001,
) -> PseudoLabelSet:
    """Union scored boxes across sources, suppress duplicates, keep confident ones.

    Candidates scored under the label threshold are dropped first.  The
    rest, in sorted-name order of their sources, are sorted at once by
    (scene, -score, box, source); exact duplicates (same scene, box and
    score) collapse to the first in that order, so listing a source twice
    changes nothing.  One grouped soft-NMS call then suppresses every scene.
    The label threshold also acts as the suppression floor: a candidate
    whose suppressed score dips below it is discarded before it can
    suppress anyone else, and survivors are recorded with their original
    scores, in sorted order.  Every label thus scores at least the
    threshold.  Idempotent: feeding the output, itself a source, back
    returns it.
    """
    if not (0.0 <= threshold < 1.0):
        raise ValueError(f"threshold out of [0, 1): {threshold}")
    names = sorted(sources)
    parts = [sources[name] for name in names]
    src = np.repeat(np.arange(len(names)), [len(part) for part in parts])
    union = ScoredBoxes.concat(parts)
    confident = union.scores >= threshold
    scene, score, boxes = union.scene_ids[confident], union.scores[confident], union.boxes[confident]
    src = src[confident]
    order = np.lexsort((src, *boxes.T[::-1], -score, scene))
    key = np.column_stack([scene, score, boxes])[order]
    order = order[np.r_[True, np.any(key[1:] != key[:-1], axis=1)][: order.size]]

    kept = soft_nms(score[order], sigma, max(score_floor, threshold), boxes[order], scene[order])
    keep = order[np.sort(np.array([i for i, _ in kept], dtype=int))]
    meta = {"threshold": threshold, "sigma": sigma, "score_floor": score_floor, "sources": names}
    label_sources = np.array(names, dtype=str)[src[keep]]
    return PseudoLabelSet(scene[keep], score[keep], boxes[keep], label_sources, meta)
