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

from .boxes import box_area, xyxy_to_xywh
from .boxes import box_iou as iou  # perfbench/tracing.py counts calls under this name


class EmptyPseudoLabels(RuntimeError):
    """The current prompt set produced no usable pseudo-labels.  Growth
    raises it; it lives here so that the CLI catches it without importing
    the growth modules."""


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
    """Pseudo ground truth and the recipe that produced it;
    ``build_pseudo_labels`` orders labels by (scene, -score, box)."""

    meta: dict = field(default_factory=dict)

    def to_coco(self, scene_dims: Mapping[int, tuple[int, int]]) -> dict:
        """COCO annotations document listing every scene of ``scene_dims``
        (scene id -> (w, h)), labelled or not, with each label's score and
        the build settings as ``info``."""
        areas, crowd = box_area(self.boxes), np.zeros(len(self), dtype=bool)
        doc = annotations_to_coco(scene_dims, self.scene_ids, self.boxes, areas, crowd, self.scores)
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
    rows = zip(scene_ids.tolist(), xyxy_to_xywh(boxes).tolist(), areas.tolist(), crowd.tolist())
    annotations = [
        {
            "id": k,
            "image_id": sid,
            "category_id": 1,
            "bbox": bbox,
            "area": area,
            "iscrowd": int(iscrowd),
        }
        for k, (sid, bbox, area, iscrowd) in enumerate(rows, start=1)
    ]
    if scores is not None:
        for annotation, score in zip(annotations, scores.tolist()):
            annotation["score"] = score
    categories = [{"id": 1, "name": "object"}]
    return {"images": images, "annotations": annotations, "categories": categories}


# A group of at least this many boxes is cut into parts that cannot interact
# before suppression.  Cutting costs four sorts, which smaller groups do not
# repay in fewer steps.
_SPLIT_MIN_GROUP = 8


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

    A box never rescales one it does not overlap, so when some group has at
    least ``_SPLIT_MIN_GROUP`` boxes and no score is negative, every group
    is first cut into parts whose boxes cannot overlap those of another
    part (``_cut``), and the steps run over the parts.  Each step then
    selects once per part instead of once per group, so boxes leave sooner
    and the steps carry fewer live boxes; the selections are the same.
    Scores then never rise, so a group's selections come in non-increasing
    score, ties to the earliest box, and sorting them that way restores the
    group's selection order.
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
    alive = np.argsort(groups, kind="stable")  # by group, then input order
    first = np.ones(alive.size, dtype=bool)
    np.not_equal(groups[alive][1:], groups[alive][:-1], out=first[1:])
    starts = np.flatnonzero(first)
    group = np.cumsum(first) - 1  # each box's group, counted from 0
    split = np.diff(starts, append=alive.size).max(initial=0) >= _SPLIT_MIN_GROUP
    split = split and scores.min() >= 0.0  # a negative score rises when rescaled
    if split:
        alive, group = _parts(alive, group, starts, scores, boxes, score_floor)
    pick, final = _suppress(alive, group, scores[alive], boxes[alive], sigma, score_floor)
    if split:
        order = np.lexsort((pick, -final, groups[pick]))
    else:
        order = np.argsort(groups[pick], kind="stable")
    return list(zip(pick[order].tolist(), final[order].tolist()))


def _parts(
    alive: np.ndarray,
    group: np.ndarray,
    starts: np.ndarray,
    scores: np.ndarray,
    boxes: np.ndarray,
    score_floor: float,
) -> tuple[np.ndarray, np.ndarray]:
    """The boxes ``alive`` (indices, by group id from 0 and then index; each
    group's first row at ``starts``) that can be selected, by part and then
    index, and each one's part id."""
    # The first step drops every box under the floor but the group's first
    # selection.  Drop them before cutting: as the first selection of its
    # part, such a box would escape the floor.
    ranked = scores[alive]
    top = np.maximum.reduceat(ranked, starts)[group]
    keep = ranked >= score_floor
    keep[np.minimum.reduceat(np.where(ranked == top, np.arange(alive.size), alive.size), starts)] = True
    alive, group = alive[keep], group[keep]
    part = _cut(_cut(group, boxes[alive, 0], boxes[alive, 2]), boxes[alive, 1], boxes[alive, 3])
    by_part = np.argsort(part, kind="stable")  # parts nest in groups: by part, then index
    return alive[by_part], part[by_part]


def _cut(group: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Part ids, counted from 0 and ascending with ``group`` (ids counted
    from 0): each group, taken in ``lo`` order, is cut before every box
    whose ``lo`` is at least the largest ``hi`` before it, so that no
    (lo, hi) extent of one part overlaps one of another.  A non-finite
    value never cuts.  Equal ``lo`` values may come in any order; each
    order gives valid parts."""
    n = group.size
    by_lo, by_hi = _by_group(group, lo), _by_group(group, hi)
    rank = np.empty(n, dtype=np.intp)
    rank[by_hi] = np.arange(n)
    # a group's ranks exceed those of every group before it, so the running
    # maximum of ranks restarts at each group: the largest hi so far, exactly
    reach = hi[by_hi][np.maximum.accumulate(rank[by_lo])]
    start = lo[by_lo]
    key = group[by_lo]
    new = np.ones(n, dtype=bool)
    new[1:] = (key[1:] != key[:-1]) | (
        (start[1:] >= reach[:-1]) & np.isfinite(start[1:]) & np.isfinite(reach[:-1])
    )
    part = np.empty(n, dtype=np.intp)
    part[by_lo] = np.cumsum(new) - 1
    return part


def _by_group(group: np.ndarray, key: np.ndarray) -> np.ndarray:
    """Indices that order rows by ``group`` (ids from 0, each below the row
    count), then by ``key``; equal keys in any order.  A stable sort of
    16-bit ids is a radix sort, several times faster than ``np.lexsort``."""
    order = np.argsort(key)
    ids = group.astype(np.uint16) if group.size <= 1 << 16 else group
    return order[np.argsort(ids[order], kind="stable")]


def _suppress(
    alive: np.ndarray,
    group: np.ndarray,
    running: np.ndarray,
    live_boxes: np.ndarray,
    sigma: float,
    score_floor: float,
) -> tuple[np.ndarray, np.ndarray]:
    """The steps of grouped soft-NMS over the boxes ``alive`` (indices),
    listed by ``group`` and then index, with their running scores and their
    boxes, all compressed together as boxes drop: the selected indices and
    their final scores, step after step, each step in group order."""
    picks, finals = [], []
    flags = np.ones(alive.size, dtype=bool)
    positions = np.arange(alive.size)
    while alive.size:
        n = alive.size
        first = flags[:n]  # first[0] stays True
        np.not_equal(group[1:], group[:-1], out=first[1:])
        starts = np.flatnonzero(first)
        seg = np.cumsum(first) - 1  # each live box's group, counted from 0
        top = np.maximum.reduceat(running, starts)[seg]
        sel = np.minimum.reduceat(np.where(running == top, positions[:n], n), starts)  # first top per group
        picks.append(alive[sel])
        finals.append(running[sel])
        row = iou(live_boxes[sel[seg]], live_boxes)
        row[sel] = 0.0
        hit = np.flatnonzero(row > 0.0)
        # float_power squares with the C library's pow, as Python's ** does;
        # exp stays math.exp, which np.exp does not match bit for bit
        running[hit] *= list(map(math.exp, (-np.float_power(row[hit], 2.0) / sigma).tolist()))
        live = running >= score_floor
        live[sel] = False
        alive, group, running, live_boxes = alive[live], group[live], running[live], live_boxes[live]
    pick = np.concatenate(picks or [np.zeros(0, dtype=int)])
    final = np.concatenate(finals or [np.zeros(0)])
    return pick, final


def build_pseudo_labels(
    sources: Mapping[str, ScoredBoxes],
    threshold: float,
    sigma: float,
    score_floor: float,
) -> PseudoLabelSet:
    """Union scored boxes across sources, suppress duplicates, keep confident ones.

    Candidates scored under the label threshold are dropped first.  The
    rest, in sorted-name order of their sources, are sorted at once by
    (scene, -score, box); exact duplicates (same scene, box and score)
    collapse to the first in that order, so listing a source twice changes
    nothing.  One grouped soft-NMS call then suppresses every scene.
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
    union = ScoredBoxes.concat([sources[name] for name in names])
    confident = union.scores >= threshold
    scene, score, boxes = union.scene_ids[confident], union.scores[confident], union.boxes[confident]
    order = np.lexsort((*boxes.T[::-1], -score, scene))
    key = np.column_stack([scene, score, boxes])[order]
    order = order[np.r_[True, np.any(key[1:] != key[:-1], axis=1)][: order.size]]

    kept = soft_nms(score[order], sigma, max(score_floor, threshold), boxes[order], scene[order])
    keep = order[np.sort(np.array([i for i, _ in kept], dtype=int))]
    meta = {"threshold": threshold, "sigma": sigma, "score_floor": score_floor, "sources": names}
    return PseudoLabelSet(scene[keep], score[keep], boxes[keep], meta)
