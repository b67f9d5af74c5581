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
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

from .boxes import BBox, iou, size_class_from_area
from .world import World

IOU_THRESHOLDS = tuple(0.5 + 0.05 * i for i in range(10))
RECALL_GRID = tuple(i / 100.0 for i in range(101))
DEFAULT_MAX_DETS = (1, 10, 100)


class CocoFormatError(ValueError):
    """Raised when a COCO-style document is structurally unusable."""


@dataclass(frozen=True)
class GroundTruth:
    scene_id: int
    bbox: BBox
    area: float
    iscrowd: bool = False


@dataclass(frozen=True)
class DetectionRecord:
    """Minimal detection for evaluation; anything score/bbox-shaped works."""

    scene_id: int
    bbox: BBox
    score: float


@dataclass
class GroundTruthSet:
    by_scene: dict[int, tuple[GroundTruth, ...]]
    scene_dims: dict[int, tuple[int, int]]

    def __post_init__(self) -> None:
        missing = set(self.by_scene) - set(self.scene_dims)
        if missing:
            raise ValueError(f"ground truth for unknown scenes: {sorted(missing)}")

    @property
    def num_scenes(self) -> int:
        return len(self.scene_dims)

    @property
    def num_annotations(self) -> int:
        return sum(len(v) for v in self.by_scene.values())

    @classmethod
    def from_world(cls, world: World) -> "GroundTruthSet":
        by_scene = {}
        dims = {}
        for scene in world.scenes:
            dims[scene.id] = (scene.width, scene.height)
            by_scene[scene.id] = tuple(
                GroundTruth(scene.id, obj.bbox, obj.bbox.area)
                for obj in world.scene_objects(scene)
            )
        return cls(by_scene=by_scene, scene_dims=dims)

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
                sid = int(image["id"])
                size = (int(image["width"]), int(image["height"]))
            except (TypeError, KeyError, ValueError) as exc:
                raise CocoFormatError(f"images[{i}] missing id/width/height") from exc
            if sid in dims:
                raise CocoFormatError(f"images[{i}] repeats image id {sid}")
            dims[sid] = size
        by_scene: dict[int, list[GroundTruth]] = {sid: [] for sid in dims}
        for i, ann in enumerate(doc["annotations"]):
            try:
                sid = int(ann["image_id"])
                x, y, w, h = (float(v) for v in ann["bbox"])
            except (TypeError, KeyError, ValueError) as exc:
                raise CocoFormatError(f"annotations[{i}] missing image_id/bbox") from exc
            if sid not in dims:
                raise CocoFormatError(f"annotations[{i}] references unknown image {sid}")
            try:
                bbox = BBox.from_xywh(x, y, w, h)
                area = float(ann.get("area", bbox.area))
            except (TypeError, ValueError) as exc:
                raise CocoFormatError(f"annotations[{i}]: {exc}") from exc
            by_scene[sid].append(
                GroundTruth(sid, bbox, area, iscrowd=bool(ann.get("iscrowd", 0)))
            )
        return cls(by_scene={k: tuple(v) for k, v in by_scene.items()}, scene_dims=dims)

    def to_coco(self) -> dict:
        images = [
            {"id": int(sid), "width": int(w), "height": int(h)}
            for sid, (w, h) in sorted(self.scene_dims.items())
        ]
        annotations = []
        for sid in sorted(self.scene_dims):
            for gt in self.by_scene.get(sid, ()):
                x, y, w, h = gt.bbox.to_xywh()
                annotations.append(
                    {
                        "id": len(annotations) + 1,
                        "image_id": int(sid),
                        "category_id": 1,
                        "bbox": [float(x), float(y), float(w), float(h)],
                        "area": float(gt.area),
                        "iscrowd": int(gt.iscrowd),
                    }
                )
        return {
            "images": images,
            "annotations": annotations,
            "categories": [{"id": 1, "name": "object"}],
        }


def load_coco_ground_truth(path: str | Path) -> GroundTruthSet:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise CocoFormatError(f"{path}: not valid JSON ({exc})") from exc
    except OSError as exc:
        raise CocoFormatError(f"{path}: {exc.strerror}") from exc
    return GroundTruthSet.from_coco(doc)


def load_coco_detections(path: str | Path) -> dict[int, list[DetectionRecord]]:
    """Parse a COCO results array into per-scene detection lists."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise CocoFormatError(f"{path}: not valid JSON ({exc})") from exc
    except OSError as exc:
        raise CocoFormatError(f"{path}: {exc.strerror}") from exc
    if not isinstance(doc, list):
        raise CocoFormatError(f"{path}: detection results must be a JSON array")
    by_scene: dict[int, list[DetectionRecord]] = {}
    for i, rec in enumerate(doc):
        try:
            sid = int(rec["image_id"])
            x, y, w, h = (float(v) for v in rec["bbox"])
            score = float(rec["score"])
        except (TypeError, KeyError, ValueError) as exc:
            raise CocoFormatError(
                f"{path}: results[{i}] missing image_id/bbox/score"
            ) from exc
        if not math.isfinite(score):
            raise CocoFormatError(f"{path}: results[{i}] has non-finite score {score}")
        try:
            bbox = BBox.from_xywh(x, y, w, h)
        except ValueError as exc:
            raise CocoFormatError(f"{path}: results[{i}]: {exc}") from exc
        by_scene.setdefault(sid, []).append(DetectionRecord(sid, bbox, score))
    return by_scene


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

    @property
    def max_cap(self) -> int:
        return max(self.ar_at)

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


@dataclass
class _SceneMatch:
    """Greedy matching of one scene's capped detections at one threshold."""

    flags: list[str] = field(default_factory=list)  # "tp" | "fp" | "ign" per det
    num_matched: int = 0


def _match_scene(
    det_entries: Sequence[tuple[float, int, BBox]],
    ious: Sequence[Sequence[float]],
    gt_ignored: Sequence[bool],
    threshold: float,
    size_cls: str | None,
) -> _SceneMatch:
    out = _SceneMatch()
    consumed = [False] * len(gt_ignored)
    for di, (_, _, box) in enumerate(det_entries):
        best_gi = -1
        best_iou = 0.0
        for gi in range(len(gt_ignored)):
            if gt_ignored[gi] or consumed[gi]:
                continue
            v = ious[di][gi]
            if v >= threshold and v > best_iou:
                best_gi, best_iou = gi, v
        if best_gi >= 0:
            consumed[best_gi] = True
            out.flags.append("tp")
            out.num_matched += 1
            continue
        hits_ignored = any(
            gt_ignored[gi] and ious[di][gi] >= threshold for gi in range(len(gt_ignored))
        )
        if hits_ignored:
            out.flags.append("ign")
        elif size_cls is not None and size_class_from_area(box.area) != size_cls:
            out.flags.append("ign")
        else:
            out.flags.append("fp")
    return out


def _average_precision(
    ranked_flags: Sequence[str], total_gt: int
) -> float:
    """101-point interpolated AP from globally ranked detection flags."""
    precisions: list[float] = []
    recalls: list[float] = []
    tp = 0
    fp = 0
    for flag in ranked_flags:
        if flag == "ign":
            continue
        if flag == "tp":
            tp += 1
        else:
            fp += 1
        precisions.append(tp / (tp + fp))
        recalls.append(tp / total_gt)
    for i in range(len(precisions) - 2, -1, -1):
        if precisions[i + 1] > precisions[i]:
            precisions[i] = precisions[i + 1]
    ap = 0.0
    pos = 0
    for r in RECALL_GRID:
        while pos < len(recalls) and recalls[pos] < r:
            pos += 1
        if pos < len(recalls):
            ap += precisions[pos]
    return ap / len(RECALL_GRID)


def _bucket_metrics(
    scenes: Sequence[int],
    dets_sorted: Mapping[int, list[tuple[float, int, BBox]]],
    iou_cache: Mapping[int, list[list[float]]],
    gts: GroundTruthSet,
    size_cls: str | None,
    caps: Sequence[int],
    thresholds: Sequence[float],
) -> tuple[dict[int, float | None], float | None]:
    """(AR per cap, AP) for one size bucket, averaged over IoU thresholds."""
    gt_ignored: dict[int, list[bool]] = {}
    total_gt = 0
    for sid in scenes:
        flags = [
            gt.iscrowd
            or (size_cls is not None and size_class_from_area(gt.area) != size_cls)
            for gt in gts.by_scene.get(sid, ())
        ]
        gt_ignored[sid] = flags
        total_gt += sum(1 for f in flags if not f)
    if total_gt == 0:
        return {cap: None for cap in caps}, None

    max_cap = max(caps)
    recall_sum = {cap: 0.0 for cap in caps}
    ap_sum = 0.0
    for t in thresholds:
        matched = {cap: 0 for cap in caps}
        ranked: list[tuple[float, int, int, str]] = []
        for sid in scenes:
            entries = dets_sorted[sid][:max_cap]
            result = _match_scene(entries, iou_cache[sid], gt_ignored[sid], t, size_cls)
            for cap in caps:
                matched[cap] += sum(
                    1 for flag in result.flags[:cap] if flag == "tp"
                )
            for di, (score, order, _) in enumerate(entries):
                ranked.append((score, sid, order, result.flags[di]))
        ranked.sort(key=lambda r: (-r[0], r[1], r[2]))
        for cap in caps:
            recall_sum[cap] += matched[cap] / total_gt
        ap_sum += _average_precision([r[3] for r in ranked], total_gt)
    n = len(thresholds)
    return {cap: recall_sum[cap] / n for cap in caps}, ap_sum / n


def evaluate(
    dets_by_scene: Mapping[int, Sequence],
    gts: GroundTruthSet,
    max_dets: Sequence[int] = DEFAULT_MAX_DETS,
    iou_thresholds: Sequence[float] = IOU_THRESHOLDS,
) -> EvalSummary:
    """Score detections against ground truth.

    ``dets_by_scene`` maps scene id to objects with bbox/score attributes.
    Scene ids must exist in the ground truth set; scenes without detections
    simply contribute misses.
    """
    caps = sorted(set(int(c) for c in max_dets))
    if not caps or caps[0] < 1:
        raise ValueError(f"detection caps must be positive integers: {max_dets}")
    unknown = set(dets_by_scene) - set(gts.scene_dims)
    if unknown:
        raise CocoFormatError(f"detections reference unknown scenes: {sorted(unknown)}")

    scenes = sorted(gts.scene_dims)
    dets_sorted: dict[int, list[tuple[float, int, BBox]]] = {}
    iou_cache: dict[int, list[list[float]]] = {}
    num_dets = 0
    for sid in scenes:
        entries = [
            (float(d.score), order, d.bbox)
            for order, d in enumerate(dets_by_scene.get(sid, ()))
        ]
        entries.sort(key=lambda e: (-e[0], e[1]))
        num_dets += len(entries)
        dets_sorted[sid] = entries
        scene_gts = gts.by_scene.get(sid, ())
        iou_cache[sid] = [
            [iou(box, gt.bbox) for gt in scene_gts]
            for _, _, box in entries[: max(caps)]
        ]

    ar_all, ap_all = _bucket_metrics(
        scenes, dets_sorted, iou_cache, gts, None, caps, iou_thresholds
    )
    split: dict[str, tuple[float | None, float | None]] = {}
    for cls in ("S", "M", "L"):
        ar_cls, ap_cls = _bucket_metrics(
            scenes, dets_sorted, iou_cache, gts, cls, [max(caps)], iou_thresholds
        )
        split[cls] = (ar_cls[max(caps)], ap_cls)

    return EvalSummary(
        ar_at=ar_all,
        ar_small=split["S"][0],
        ar_medium=split["M"][0],
        ar_large=split["L"][0],
        ap=ap_all,
        ap_small=split["S"][1],
        ap_medium=split["M"][1],
        ap_large=split["L"][1],
        num_scenes=len(scenes),
        num_ground_truths=gts.num_annotations,
        num_detections=num_dets,
    )
