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

COCO records go through one checker per kind, ``_checked_annotation`` and
``_checked_detection``, which share the box check ``_xyxy`` and word every
fault once.  The one fast path, ``_usual_detections``, takes a results
array only when it is both usual and clean; any other goes to the checker.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from functools import cached_property
from itertools import chain
from operator import itemgetter
from pathlib import Path
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from .boxes import SIZE_CLASSES, BBox, box_area, size_class
from .boxes import box_iou as iou  # perfbench/tracing.py counts calls under this name
from .config import DEFAULT_MAX_DETS, checked_max_dets, is_whole
from .pseudo_labels import ScoredBoxes, annotations_to_coco

if TYPE_CHECKING:  # only for typing: dipex eval never loads the world module
    from .world import World

IOU_THRESHOLDS = tuple(0.5 + 0.05 * i for i in range(10))
RECALL_GRID = tuple(i / 100.0 for i in range(101))


class CocoFormatError(ValueError):
    """Raised when a COCO-style document is structurally unusable."""


@dataclass(frozen=True)
class DetectionRecord:
    """One scored box as an object, which ``perfbench/scaling.py`` feeds to
    ``soft_nms``'s object API."""

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
            raise ValueError(f"areas must be finite and non-negative, got {self.areas[bad][0]}")

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
        classes = np.full(shape, -1)
        classes[scene, index] = size_class(self.areas)
        crowd = np.zeros(shape, dtype=bool)
        crowd[scene, index] = self.crowd
        for array in (box, classes, crowd):
            array.setflags(write=False)
        return box, classes, crowd

    @property
    def num_scenes(self) -> int:
        return len(self.scene_dims)

    @property
    def num_annotations(self) -> int:
        return self.scene_ids.size

    @classmethod
    def from_world(cls, world: World) -> "GroundTruthSet":
        real = world.object_ids >= 0
        boxes = world.boxes[world.object_ids[real]]
        return cls(
            scene_dims=dict(enumerate(map(tuple, world.scene_sizes.tolist()))),
            scene_ids=np.nonzero(real)[0],
            boxes=boxes,
            areas=box_area(boxes),
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
                if min(size) < 0:
                    raise CocoFormatError(f"width and height must be non-negative, got {size}")
            except CocoFormatError as exc:
                raise CocoFormatError(f"images[{i}]: {exc}") from exc
            except (TypeError, KeyError) as exc:
                raise CocoFormatError(f"images[{i}] missing id/width/height") from exc
            if sid in dims:
                raise CocoFormatError(f"images[{i}] repeats image id {sid}")
            dims[sid] = size
        sids, rows = [], []  # rows of (x0, y0, x1, y1, area, iscrowd)
        for i, ann in enumerate(doc["annotations"]):
            sid, row = _checked_annotation(i, ann, dims)
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


def _checked_annotation(i: int, ann, dims: Mapping[int, tuple[int, int]]) -> tuple:
    """(image id, (x0, y0, x1, y1, area, iscrowd)) of one annotation, each
    field through its checker; the first problem fails with its message."""
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
        x0, y0, x1, y1 = _xyxy(x, y, w, h)
        area = _number(ann["area"], "area") if "area" in ann else (x1 - x0) * (y1 - y0)
        iscrowd = ann.get("iscrowd", 0)
        if type(iscrowd) is not int or iscrowd not in (0, 1):  # not a bool or a float
            raise CocoFormatError(f"iscrowd must be 0 or 1, got {iscrowd!r}")
        if not (math.isfinite(area) and area >= 0.0):
            raise CocoFormatError(f"area must be finite and non-negative, got {area}")
    except CocoFormatError as exc:
        raise CocoFormatError(f"annotations[{i}]: {exc}") from exc
    return sid, (x0, y0, x1, y1, area, iscrowd)


def _checked_detection(i: int, rec) -> tuple:
    """(image id, (score, x0, y0, x1, y1)) of one results record, each field
    through its checker; the first problem fails with its message."""
    try:
        sid, bbox, score = rec["image_id"], rec["bbox"], rec["score"]
        sid, xywh, score = _whole(sid, "image_id"), _xywh(bbox), _number(score, "score")
        if math.isfinite(score):
            return sid, (score, *_xyxy(*xywh))
    except CocoFormatError as exc:
        raise CocoFormatError(f"results[{i}]: {exc}") from exc
    except (TypeError, KeyError) as exc:
        raise CocoFormatError(f"results[{i}] missing image_id/bbox/score") from exc
    raise CocoFormatError(f"results[{i}] has non-finite score {score}")


def _whole(value, name: str) -> int:
    """A COCO id or size: a JSON integer, or a float with no fraction, that
    fits in int64; not a bool."""
    if not is_whole(value):
        raise CocoFormatError(f"{name} must be an integer within int64, got {value!r}")
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


def _xyxy(x: float, y: float, w: float, h: float) -> tuple[float, float, float, float]:
    """The corners of a COCO box, which must be finite (``x + w`` can
    overflow) and upright."""
    box = (x, y, x + w, y + h)
    if not all(map(math.isfinite, box)):
        raise CocoFormatError(f"non-finite box coordinates: {box}")
    if box[2] < x or box[3] < y:
        raise CocoFormatError(f"inverted box: {box}")
    return box


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

    The first bad record fails the load with ``_checked_detection``'s message.
    """
    doc = _read_json(path)
    if not isinstance(doc, list):
        raise CocoFormatError(f"{path}: detection results must be a JSON array")
    parsed = _usual_detections(doc)
    if parsed is None:
        try:
            checked = [_checked_detection(i, rec) for i, rec in enumerate(doc)]
        except CocoFormatError as exc:
            raise CocoFormatError(f"{path}: {exc}") from exc
        parsed = [sid for sid, _ in checked], np.array([row for _, row in checked]).reshape(-1, 5)
    sids, table = parsed
    dets = ScoredBoxes(np.array(sids, dtype=int), table[:, 0], table[:, 1:])
    return dets.take(np.argsort(dets.scene_ids, kind="stable")).split()


def _usual_detections(doc: list) -> tuple | None:
    """(image ids, (score, x0, y0, x1, y1) table) of a results array whose
    every record is usual and clean -- an integer image id within int64, a
    list of four floats and a float score, with a finite score, finite
    corners and an upright box -- tested in passes that run in C; None for
    any other array, valid or not."""
    try:
        sids = list(map(itemgetter("image_id"), doc))
        bboxes = list(map(itemgetter("bbox"), doc))
        scores = list(map(itemgetter("score"), doc))
    except (TypeError, KeyError):
        return None
    if (
        {*map(type, sids)} != {int} or {*map(type, bboxes)} != {list} or {*map(len, bboxes)} != {4}
        or {*map(type, chain.from_iterable(bboxes))} != {float} or {*map(type, scores)} != {float}
        or not (is_whole(min(sids)) and is_whole(max(sids)))
    ):
        return None
    xywh = np.fromiter(chain.from_iterable(bboxes), float, count=4 * len(doc)).reshape(-1, 4)
    table = np.empty((len(doc), 5))
    table[:, 0] = scores
    table[:, 1:3] = xywh[:, :2]
    np.add(xywh[:, :2], xywh[:, 2:], out=table[:, 3:])  # x + w, y + h: the same IEEE sums
    clean = np.isfinite(table).all() and (table[:, 3:] >= table[:, 1:3]).all()
    return (sids, table) if clean else None


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

    def to_dict(self) -> dict:
        out = asdict(self)
        ar_at = out.pop("ar_at")
        return {"ar": {str(cap): ar_at[cap] for cap in sorted(ar_at)}, **out}


# Outcome of one ranked detection in one (bucket, scene, threshold) cell.
# IGN marks set-aside detections and the padding past a scene's last one.
_IGN, _TP, _FP = 0, 1, 2


def _average_precision(outcomes: np.ndarray, totals: np.ndarray) -> np.ndarray:
    """101-point interpolated AP of each (bucket, threshold) row of
    ``outcomes``, a (bucket, threshold, detection) table in global rank order.

    A set-aside detection keeps the recall before it and gets precision 0,
    so the first rank reaching a grid recall is a counted detection, or a
    leading set-aside one whose envelope equals the first counted one's.
    One bucket's rows at a time, so the temporaries span one bucket's
    (threshold, detection) slab rather than the whole table.
    """
    grid = np.array(RECALL_GRID)
    ap = np.empty(outcomes.shape[:2])
    for bucket, (rows, total) in enumerate(zip(outcomes, totals)):
        tp = np.cumsum(rows == _TP, axis=-1)
        counted = rows != _IGN
        precision = np.where(counted, tp / np.maximum(np.cumsum(counted, axis=-1), 1), 0.0)
        # best precision at this rank or any later one, then 0 past the last rank
        envelope = np.maximum.accumulate(precision[:, ::-1], axis=-1)[:, ::-1]
        envelope = np.concatenate([envelope, np.zeros((len(rows), 1))], axis=-1)
        first = np.array([np.searchsorted(row, grid) for row in tp / max(total, 1)])
        picked = np.take_along_axis(envelope, first, axis=-1)
        # cumsum adds left to right, as a scalar loop over the grid would
        ap[bucket] = np.cumsum(picked, axis=-1)[:, -1] / len(RECALL_GRID)
    return ap


def _greedy_outcomes(
    ious: np.ndarray, eligible: np.ndarray, ignored: np.ndarray, det_outside: np.ndarray
) -> np.ndarray:
    """(rank, bucket, scene, threshold) outcomes of greedy matching in rank
    order, from the (scene, rank, gt) IoUs, the (bucket, scene, gt) eligible
    and ignored ground truths and the (bucket, scene, rank) detections
    outside each bucket."""
    num_buckets, num_scenes, width = eligible.shape
    depth = ious.shape[1]
    thresholds = np.array(IOU_THRESHOLDS)
    # What does not depend on which ground truths are still open, for every
    # rank at once: which ground truths each detection clears at each
    # threshold, and the outcome of a detection that matches nothing: set
    # aside when it clears an ignored ground truth or lies outside the
    # bucket, a false positive otherwise.
    clears = ious[:, :, None, :] >= thresholds[:, None]  # (scene, rank, threshold, gt)
    per_bucket = np.broadcast_to(ious, (num_buckets,) + ious.shape)
    ignored_best = np.max(per_bucket, axis=-1, where=ignored[:, :, None, :], initial=-1.0)
    set_aside = (ignored_best[..., None] >= thresholds) | det_outside[..., None]
    unmatched = np.where(set_aside, np.int8(_IGN), np.int8(_FP))  # (bucket, scene, rank, threshold)
    # per (bucket, scene, threshold, gt): 0.0 while the ground truth is open,
    # -inf once matched or if never eligible
    gate = np.where(eligible, 0.0, -np.inf)[:, :, None, :].repeat(thresholds.size, axis=2)
    gt_ids = np.arange(width)
    # each open ground truth's IoU where it is cleared, and past the last
    # ground truth a 0.0 column: below every such IoU (at least the
    # threshold, which is positive) and above the rest, so the argmax lands
    # there when no ground truth matches
    candidates = np.zeros(gate.shape[:-1] + (width + 1,))
    outcomes = np.empty((depth, num_buckets, num_scenes, thresholds.size), dtype=np.int8)
    for d in range(depth):
        np.add(np.where(clears[:, d], ious[:, d, None, :], -1.0), gate, out=candidates[..., :width])
        # the highest-IoU open ground truth, ties to the lowest index
        best = candidates.argmax(axis=-1)
        np.copyto(gate, -np.inf, where=gt_ids == best[..., None])
        outcomes[d] = np.where(best < width, _TP, unmatched[:, :, d])
    return outcomes


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
    caps = checked_max_dets(list(max_dets))
    unknown = set(dets_by_scene) - set(gts.scene_dims)
    if unknown:
        raise CocoFormatError(f"detections reference unknown scenes: {sorted(unknown)}")
    scenes = sorted(gts.scene_dims)
    num_scenes = len(scenes)
    num_thresholds = len(IOU_THRESHOLDS)

    parts = [dets_by_scene[sid] for sid in scenes if sid in dets_by_scene]
    dets = ScoredBoxes.concat(parts)
    det_scene = np.repeat(np.arange(num_scenes), [len(dets_by_scene.get(sid, ())) for sid in scenes])
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

    gt_box, gt_class, gt_crowd = gts.arrays

    # Buckets: 0 is every size, 1-3 the size classes.  A ground truth outside
    # a bucket is ignored there like a crowd region; a detection outside it
    # is set aside when it matches nothing.
    classes = np.arange(len(SIZE_CLASSES))[:, None, None]
    gt_valid = gt_class >= 0
    eligible = np.concatenate([gt_valid[None], gt_class == classes]) & ~gt_crowd
    ignored = gt_valid & ~eligible
    det_outside = np.concatenate(
        [np.zeros((1, num_scenes, depth), dtype=bool), size_class(box_area(det_box)) != classes]
    )
    totals = eligible.sum(axis=(1, 2))

    ious = iou(det_box[:, :, None, :], gt_box[:, None, :, :])  # (scene, det, gt)
    outcomes = _greedy_outcomes(ious, eligible, ignored, det_outside)

    # Averages over thresholds add them in order, as a scalar loop would.
    # hits: (cap, bucket, threshold) true positives in each scene's first cap ranks
    hits = np.stack([(outcomes[:cap] == _TP).sum(axis=(0, 2)) for cap in caps])
    recall = np.cumsum(hits / np.maximum(totals, 1)[:, None], axis=-1)[..., -1] / num_thresholds
    # one global rank order, (-score, row): rows run scene by scene, in input order
    order = np.lexsort((kept, -dets.scores[kept]))
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
