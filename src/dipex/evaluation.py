"""Class-agnostic detection metrics plus COCO-format interchange.

Reports average recall at several detection caps, size-split AR, and
101-point interpolated AP averaged over IoU thresholds 0.50:0.05:0.95.
Every ordering is pinned so independent implementations can agree to
machine precision: detections rank per scene by (-score, input order) and
globally by (-score, scene_id, input order); greedy matching takes the
highest-IoU unmatched ground truth with ties to the lowest index.  A
detection that only overlaps ignored ground truth (crowd regions, or boxes
outside the active size class) is set aside rather than counted as a false
positive, mirroring the usual COCO treatment.

Detections arrive as one ``ScoredBoxes`` per scene, from the detector or
from ``load_coco_detections``, and stay arrays.  Ground truth is a
``GroundTruthSet`` of parallel arrays (scene, xyxy box, area, crowd flag),
built from a world or read from a COCO file, and written back through
``pseudo_labels.annotations_to_coco``, the one COCO annotations writer.
``evaluate`` packs every scene's detections into padded arrays, takes the
ground truth's from ``GroundTruthSet.arrays`` (scattered once per set),
computes one (scene, detection, ground truth) IoU matrix, and matches all
size buckets, scenes and IoU thresholds together in one pass over
detection ranks.  Its sums
run in the order of a scalar loop, so it reports the same floats as the
independent scorer in ``tests/reference_eval.py``, not close ones.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .boxes import MEDIUM_MAX_AREA, SIZE_CLASSES, SMALL_MAX_AREA, BBox
from .boxes import box_iou as iou  # perfbench/tracing.py counts calls under this name
from .pseudo_labels import ScoredBoxes, annotations_to_coco
from .world import World

IOU_THRESHOLDS = tuple(0.5 + 0.05 * i for i in range(10))
RECALL_GRID = tuple(i / 100.0 for i in range(101))
DEFAULT_MAX_DETS = (1, 10, 100)


class CocoFormatError(ValueError):
    """Raised when a COCO-style document is structurally unusable."""


@dataclass(frozen=True)
class DetectionRecord:
    """One scored box as an object, the input of ``soft_nms``'s object API."""

    scene_id: int
    bbox: BBox
    score: float


@dataclass(frozen=True, eq=False)
class GroundTruthSet:
    """Ground truth as read-only parallel arrays, one row per box, sorted by
    scene; each scene keeps its world or file order.  ``scene_dims`` (scene
    id -> (w, h)) lists every scene, with boxes or without."""

    scene_dims: dict[int, tuple[int, int]]
    scene_ids: np.ndarray  # (n,) int
    boxes: np.ndarray      # (n, 4) xyxy
    areas: np.ndarray      # (n,)
    crowd: np.ndarray      # (n,) bool

    def __post_init__(self) -> None:
        for name, dtype, shape in (
            ("scene_ids", int, -1), ("boxes", float, (-1, 4)), ("areas", float, -1), ("crowd", bool, -1)
        ):
            array = np.array(getattr(self, name), dtype=dtype).reshape(shape)
            array.setflags(write=False)
            object.__setattr__(self, name, array)
        missing = set(self.scene_ids.tolist()) - set(self.scene_dims)
        if missing:
            raise ValueError(f"ground truth for unknown scenes: {sorted(missing)}")
        if np.any(np.diff(self.scene_ids) < 0):
            raise ValueError("ground truth rows must be sorted by scene")
        bad = ~(np.isfinite(self.areas) & (self.areas >= 0.0))
        if bad.any():
            raise ValueError(f"area must be finite and non-negative, got {self.areas[bad][0]}")

    @cached_property
    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The rows scattered into padded read-only arrays, one row per scene
        in id order, built on first use and kept: (S, W, 4) xyxy boxes,
        (S, W) size classes (indices into ``SIZE_CLASSES``, -1 for padding)
        and (S, W) crowd flags.  There is at least one column, padding if no
        scene has ground truth."""
        scene = np.searchsorted(sorted(self.scene_dims), self.scene_ids)
        index = np.arange(self.scene_ids.size) - np.searchsorted(self.scene_ids, self.scene_ids)
        shape = (len(self.scene_dims), int(index.max(initial=0)) + 1)
        box = np.zeros(shape + (4,))
        box[scene, index] = self.boxes
        size_class = np.full(shape, -1)
        size_class[scene, index] = _size_class(self.areas)
        crowd = np.zeros(shape, dtype=bool)
        crowd[scene, index] = self.crowd
        for array in (box, size_class, crowd):
            array.setflags(write=False)
        return box, size_class, crowd

    @property
    def num_scenes(self) -> int:
        return len(self.scene_dims)

    @property
    def num_annotations(self) -> int:
        return self.scene_ids.size

    @classmethod
    def from_world(cls, world: World) -> "GroundTruthSet":
        scenes = sorted(world.scenes, key=lambda scene: scene.id)
        boxes = np.array(
            [world.objects[i].bbox.as_tuple() for scene in scenes for i in scene.object_ids]
        ).reshape(-1, 4)
        counts = [len(scene.object_ids) for scene in scenes]
        return cls(
            scene_dims={scene.id: (scene.width, scene.height) for scene in scenes},
            scene_ids=np.repeat([scene.id for scene in scenes], counts),
            boxes=boxes,
            areas=(boxes[:, 2] - boxes[:, 0]) * (boxes[:, 3] - boxes[:, 1]),
            crowd=np.zeros(len(boxes), dtype=bool),
        )

    @classmethod
    def from_coco(cls, doc: dict) -> "GroundTruthSet":
        if not isinstance(doc, dict):
            raise CocoFormatError("ground truth document must be a JSON object")
        for key in ("images", "annotations"):
            if key not in doc or not isinstance(doc[key], list):
                raise CocoFormatError(f"ground truth document missing '{key}' list")
        dims: dict[int, tuple[int, int]] = {}
        for i, image in enumerate(doc["images"]):
            try:
                sid = _whole(image["id"], "id")
                size = (_whole(image["width"], "width"), _whole(image["height"], "height"))
            except CocoFormatError as exc:
                raise CocoFormatError(f"images[{i}]: {exc}") from exc
            except (TypeError, KeyError) as exc:
                raise CocoFormatError(f"images[{i}] missing id/width/height") from exc
            if sid in dims:
                raise CocoFormatError(f"images[{i}] repeats image id {sid}")
            dims[sid] = size
        sids, rows = [], []  # rows of (x0, y0, x1, y1, area, iscrowd)
        for i, ann in enumerate(doc["annotations"]):
            sid, row = _usual_annotation(ann, dims) or _checked_annotation(i, ann, dims)
            sids.append(sid)
            rows.append(row)
        sids = np.array(sids, dtype=int)
        order = np.argsort(sids, kind="stable")
        table = np.array(rows, dtype=float).reshape(-1, 6)[order]
        return cls(dims, sids[order], table[:, :4], table[:, 4], table[:, 5] != 0.0)

    def to_coco(self) -> dict:
        return annotations_to_coco(
            self.scene_dims, self.scene_ids, self.boxes, self.areas, self.crowd
        )


_FLOAT = {float}


def _usual_annotation(ann, dims: Mapping[int, tuple[int, int]]) -> tuple | None:
    """(image id, (x0, y0, x1, y1, area, iscrowd)) of the usual annotation,
    valid, with an integer image id, a list of four floats and a float area
    or none, tested inline; None for anything else, valid or not."""
    if type(ann) is not dict:
        return None
    sid, bbox, area = ann.get("image_id"), ann.get("bbox"), ann.get("area", 0.0)
    if (
        type(sid) is not int or type(bbox) is not list or len(bbox) != 4
        or type(area) is not float or {*map(type, bbox)} != _FLOAT or sid not in dims
    ):
        return None
    x, y, w, h = bbox
    x1, y1 = x + w, y + h
    if "area" not in ann:
        area = (x1 - x) * (y1 - y)  # BBox.area
    iscrowd = ann.get("iscrowd", 0)
    usual = (
        iscrowd in (0, 1) and x1 >= x and y1 >= y and area >= 0.0
        and math.isfinite(x) and math.isfinite(y) and math.isfinite(x1)
        and math.isfinite(y1) and math.isfinite(area)
    )
    return (sid, (x, y, x1, y1, area, iscrowd)) if usual else None


def _checked_annotation(i: int, ann, dims: Mapping[int, tuple[int, int]]) -> tuple:
    """``_usual_annotation`` of any record, each field through its checker;
    the first problem fails with its message."""
    try:
        sid = _whole(ann["image_id"], "image_id")
        x, y, w, h = _xywh(ann["bbox"])
    except CocoFormatError as exc:
        raise CocoFormatError(f"annotations[{i}]: {exc}") from exc
    except (TypeError, KeyError) as exc:
        raise CocoFormatError(f"annotations[{i}] missing image_id/bbox") from exc
    if sid not in dims:
        raise CocoFormatError(f"annotations[{i}] references unknown image {sid}")
    try:
        bbox = BBox.from_xywh(x, y, w, h)
        area = _number(ann["area"], "area") if "area" in ann else bbox.area
        iscrowd = ann.get("iscrowd", 0)
        if iscrowd not in (0, 1):
            raise CocoFormatError(f"iscrowd must be 0 or 1, got {iscrowd!r}")
        if not (math.isfinite(area) and area >= 0.0):
            raise CocoFormatError(f"area must be finite and non-negative, got {area}")
    except ValueError as exc:
        raise CocoFormatError(f"annotations[{i}]: {exc}") from exc
    return sid, (*bbox.as_tuple(), area, iscrowd)


def _whole(value, name: str) -> int:
    """A COCO id or size: a JSON integer, or a float with no fraction; not a bool."""
    if isinstance(value, bool) or not (
        isinstance(value, int) or (isinstance(value, float) and value.is_integer())
    ):
        raise CocoFormatError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _number(value, name: str) -> float:
    """A JSON number as a float; not a bool, a string or an integer past float range."""
    try:
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return float(value)
    except OverflowError:
        pass
    raise CocoFormatError(f"{name} must be a number, got {value!r}")


def _xywh(value) -> tuple[float, float, float, float]:
    """A COCO bbox: a list of four numbers."""
    if not (isinstance(value, (list, tuple)) and len(value) == 4):
        raise CocoFormatError(f"bbox must be a list of 4 numbers, got {value!r}")
    x, y, w, h = (_number(v, "bbox") for v in value)
    return x, y, w, h


def _read_json(path: str | Path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise CocoFormatError(f"{path}: not valid JSON ({exc})") from exc
    except OSError as exc:
        raise CocoFormatError(f"{path}: {exc.strerror}") from exc


def load_coco_ground_truth(path: str | Path) -> GroundTruthSet:
    return GroundTruthSet.from_coco(_read_json(path))


def load_coco_detections(path: str | Path) -> dict[int, ScoredBoxes]:
    """Parse a COCO results array into one ``ScoredBoxes`` per scene that
    has detections, keyed in id order, each scene's rows in file order.

    The first bad record fails the load: a missing field, an image id that
    is not an integer, a bbox or score that is not made of numbers, a
    non-finite score, a non-finite corner (``x + w`` can overflow) or an
    inverted box.
    """
    doc = _read_json(path)
    if not isinstance(doc, list):
        raise CocoFormatError(f"{path}: detection results must be a JSON array")
    sids, rows, unread = [], [], None
    for rec in doc:
        try:
            sid, bbox, score = rec["image_id"], rec["bbox"], rec["score"]
            # the usual record, an integer id and five floats, skips the checkers
            if type(sid) is not int or type(bbox) is not list or len(bbox) != 4 or (
                {*map(type, bbox), type(score)} != _FLOAT
            ):
                sid, bbox, score = _whole(sid, "image_id"), _xywh(bbox), _number(score, "score")
        except CocoFormatError as exc:
            unread = (f": {exc}", exc)  # reported after any bad record before it
            break
        except (TypeError, KeyError) as exc:
            unread = (" missing image_id/bbox/score", exc)
            break
        x, y, w, h = bbox
        rows.append((score, x, y, x + w, y + h))
        sids.append(sid)
    table = np.array(rows, dtype=float).reshape(-1, 5)
    scores, boxes = table[:, 0], table[:, 1:]
    problems = (
        (~np.isfinite(scores), " has non-finite score {score}"),
        (~np.isfinite(boxes).all(axis=1), ": non-finite box coordinates: {box}"),
        ((boxes[:, 2] < boxes[:, 0]) | (boxes[:, 3] < boxes[:, 1]), ": inverted box: {box}"),
    )
    bad = np.flatnonzero(np.logical_or.reduce([flags for flags, _ in problems]))
    if bad.size:
        i = int(bad[0])
        problem = next(message for flags, message in problems if flags[i])
        detail = problem.format(score=scores[i].item(), box=tuple(boxes[i].tolist()))
        raise CocoFormatError(f"{path}: results[{i}]{detail}")
    if unread is not None:
        detail, exc = unread
        raise CocoFormatError(f"{path}: results[{len(rows)}]{detail}") from exc
    dets = ScoredBoxes(np.array(sids, dtype=int), scores, boxes)
    return dets.take(np.argsort(dets.scene_ids, kind="stable")).split()


@dataclass(frozen=True)
class EvalSummary:
    """Metric bundle for one detection set.  None means no ground truth in
    the relevant bucket (metric absent, deliberately distinct from zero)."""

    ar_at: dict[int, float | None]
    ar_small: float | None
    ar_medium: float | None
    ar_large: float | None
    ap: float | None
    ap_small: float | None
    ap_medium: float | None
    ap_large: float | None
    num_scenes: int = 0
    num_ground_truths: int = 0
    num_detections: int = 0

    def __post_init__(self) -> None:
        caps = sorted(self.ar_at)
        values = [self.ar_at[c] for c in caps]
        present = [v for v in values if v is not None]
        for lo, hi in zip(present, present[1:]):
            if hi < lo - 1e-12:
                raise ValueError(f"recall must not decrease with the cap: {self.ar_at}")

    def ar(self, cap: int) -> float | None:
        return self.ar_at[cap]

    def to_dict(self) -> dict:
        return {
            "ar": {str(cap): self.ar_at[cap] for cap in sorted(self.ar_at)},
            "ar_small": self.ar_small,
            "ar_medium": self.ar_medium,
            "ar_large": self.ar_large,
            "ap": self.ap,
            "ap_small": self.ap_small,
            "ap_medium": self.ap_medium,
            "ap_large": self.ap_large,
            "num_scenes": self.num_scenes,
            "num_ground_truths": self.num_ground_truths,
            "num_detections": self.num_detections,
        }

    def write_json(self, path: str | Path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    def csv_row(self) -> dict[str, str]:
        def fmt(v: float | None) -> str:
            return "" if v is None else f"{v:.6f}"

        row = {f"ar_{cap}": fmt(self.ar_at[cap]) for cap in sorted(self.ar_at)}
        row.update(
            ar_s=fmt(self.ar_small),
            ar_m=fmt(self.ar_medium),
            ar_l=fmt(self.ar_large),
            ap=fmt(self.ap),
            ap_s=fmt(self.ap_small),
            ap_m=fmt(self.ap_medium),
            ap_l=fmt(self.ap_large),
        )
        return row

    def write_csv(self, path: str | Path) -> None:
        row = self.csv_row()
        with open(path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(row), lineterminator="\n")
            writer.writeheader()
            writer.writerow(row)


# Outcome of one ranked detection in one (bucket, scene, threshold) cell.
# IGN marks set-aside detections and the padding past a scene's last one.
_IGN, _TP, _FP = 0, 1, 2


def _layout(counts: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """Scene index and index within the scene of rows listed scene after
    scene, ``counts[k]`` of them for scene k."""
    counts = np.array(counts, dtype=np.int64)
    scene = np.repeat(np.arange(counts.size), counts)
    return scene, np.arange(scene.size) - np.repeat(np.cumsum(counts) - counts, counts)


def _size_class(area: np.ndarray) -> np.ndarray:
    """Index into ``SIZE_CLASSES`` of each area, as ``size_class_from_area``."""
    return np.searchsorted(np.array([SMALL_MAX_AREA, MEDIUM_MAX_AREA]), area, side="right")


def _average_precision(outcomes: np.ndarray, totals: np.ndarray) -> np.ndarray:
    """101-point interpolated AP of each (bucket, threshold) row of
    ``outcomes``, a (bucket, threshold, detection) table in global rank order.

    A set-aside detection keeps the recall before it and gets precision 0,
    so the first rank reaching a grid recall is a counted detection, or a
    leading set-aside one whose envelope equals the first counted one's.
    """
    tp = np.cumsum(outcomes == _TP, axis=-1)
    counted = outcomes != _IGN
    precision = np.where(counted, tp / np.maximum(np.cumsum(counted, axis=-1), 1), 0.0)
    # best precision at this rank or any later one, then 0 past the last rank
    envelope = np.maximum.accumulate(precision[..., ::-1], axis=-1)[..., ::-1]
    envelope = np.concatenate([envelope, np.zeros(envelope.shape[:-1] + (1,))], axis=-1)
    recall = tp / np.maximum(totals, 1)[:, None, None]
    grid = np.array(RECALL_GRID)
    first = np.array([[np.searchsorted(row, grid) for row in rows] for rows in recall])
    picked = np.take_along_axis(envelope, first, axis=-1)
    # cumsum adds left to right, as a scalar loop over the grid would
    return np.cumsum(picked, axis=-1)[..., -1] / len(RECALL_GRID)


def evaluate(
    dets_by_scene: Mapping[int, ScoredBoxes],
    gts: GroundTruthSet,
    max_dets: Sequence[int] = DEFAULT_MAX_DETS,
) -> EvalSummary:
    """Score detections against ground truth.

    ``dets_by_scene`` maps scene id to that scene's ``ScoredBoxes``, whose
    row order breaks score ties.  Scene ids must exist in the ground truth
    set; scenes without detections simply contribute misses.
    """
    caps = sorted(set(int(c) for c in max_dets))
    if not caps or caps[0] < 1:
        raise ValueError(f"detection caps must be positive integers: {max_dets}")
    unknown = set(dets_by_scene) - set(gts.scene_dims)
    if unknown:
        raise CocoFormatError(f"detections reference unknown scenes: {sorted(unknown)}")
    scenes = sorted(gts.scene_dims)
    num_scenes = len(scenes)
    num_thresholds = len(IOU_THRESHOLDS)

    parts = [dets_by_scene[sid] for sid in scenes if sid in dets_by_scene]
    dets = ScoredBoxes.concat(parts)
    det_scene, det_order = _layout([len(dets_by_scene.get(sid, ())) for sid in scenes])
    # Rank each scene's detections by score (lexsort is stable, so input
    # order breaks ties) and keep the first max(caps) of each.
    ranked = np.lexsort((-dets.scores, det_scene))
    rank = np.arange(len(dets)) - np.searchsorted(det_scene[ranked], det_scene[ranked])
    keep = rank < caps[-1]
    kept = ranked[keep]
    n_idx, d_idx = det_scene[kept], rank[keep]
    depth = int(d_idx.max(initial=-1)) + 1
    det_box = np.zeros((num_scenes, depth, 4))
    det_box[n_idx, d_idx] = dets.boxes[kept]
    det_area = (det_box[..., 2] - det_box[..., 0]) * (det_box[..., 3] - det_box[..., 1])

    gt_box, gt_class, gt_crowd = gts.arrays
    width = gt_box.shape[1]

    # Buckets: 0 is every size, 1-3 the size classes.  A ground truth outside
    # a bucket is ignored there like a crowd region; a detection outside it
    # is set aside when it matches nothing.
    classes = np.arange(len(SIZE_CLASSES))[:, None, None]
    gt_valid = gt_class >= 0
    eligible = np.concatenate([gt_valid[None], gt_class == classes]) & ~gt_crowd
    ignored = gt_valid & ~eligible
    det_outside = np.concatenate(
        [np.zeros((1, num_scenes, depth), dtype=bool), _size_class(det_area) != classes]
    )
    totals = eligible.sum(axis=(1, 2))

    ious = iou(det_box[:, :, None, :], gt_box[:, None, :, :])  # (scene, det, gt)
    thresholds = np.array(IOU_THRESHOLDS)[:, None]
    open_gt = np.repeat(eligible[:, :, None, :], num_thresholds, axis=2)
    gt_ids = np.arange(width)
    # (rank, bucket, scene, threshold) outcomes of greedy matching in rank order
    outcomes = np.empty((depth, len(totals), num_scenes, num_thresholds), dtype=np.int8)
    for d in range(depth):
        v = ious[:, d, None, :]  # (scene, 1, gt)
        hit = v >= thresholds  # (scene, threshold, gt)
        candidate = hit & open_gt  # (bucket, scene, threshold, gt)
        # the highest-IoU open ground truth, ties to the lowest index
        best = np.where(candidate, v, -1.0).argmax(axis=-1)
        matched = candidate.any(axis=-1)
        open_gt &= ~((gt_ids == best[..., None]) & matched[..., None])
        set_aside = (hit & ignored[:, :, None, :]).any(axis=-1) | det_outside[:, :, d, None]
        outcomes[d] = np.where(matched, _TP, np.where(set_aside, _IGN, _FP))

    # Averages over thresholds add them in order, as a scalar loop would.
    # hits: (cap, bucket, threshold) true positives in each scene's first cap ranks
    hits = np.stack([(outcomes[:cap] == _TP).sum(axis=(0, 2)) for cap in caps])
    recall = np.cumsum(hits / np.maximum(totals, 1)[:, None], axis=-1)[..., -1] / num_thresholds
    # one global rank order, (-score, scene, input order), for every row
    order = np.lexsort((det_order[kept], n_idx, -dets.scores[kept]))
    ranked_outcomes = np.moveaxis(outcomes[d_idx[order], :, n_idx[order], :], 0, -1)
    ap_rows = _average_precision(ranked_outcomes, totals)
    ap = np.cumsum(ap_rows, axis=-1)[:, -1] / num_thresholds

    def value(table: np.ndarray, bucket: int) -> float | None:
        return float(table[bucket]) if totals[bucket] else None

    return EvalSummary(
        ar_at={cap: value(recall[i], 0) for i, cap in enumerate(caps)},
        ar_small=value(recall[-1], 1),
        ar_medium=value(recall[-1], 2),
        ar_large=value(recall[-1], 3),
        ap=value(ap, 0),
        ap_small=value(ap, 1),
        ap_medium=value(ap, 2),
        ap_large=value(ap, 3),
        num_scenes=num_scenes,
        num_ground_truths=gts.num_annotations,
        num_detections=len(dets),
    )
