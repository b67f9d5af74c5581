"""Axis-aligned boxes in pixel coordinates plus the handful of geometric
primitives (IoU, size buckets) shared by the detector, the label
builder and the evaluator."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# COCO-style area buckets: small < 32^2 <= medium < 96^2 <= large.
SMALL_MAX_AREA = 32.0 ** 2
MEDIUM_MAX_AREA = 96.0 ** 2

SIZE_CLASSES = ("S", "M", "L")


@dataclass(frozen=True)
class BBox:
    """Box as (x_min, y_min, x_max, y_max), x_max >= x_min and y_max >= y_min."""

    x_min: float
    y_min: float
    x_max: float
    y_max: float

    def __post_init__(self) -> None:
        if not all(math.isfinite(v) for v in self.as_tuple()):
            raise ValueError(f"non-finite box coordinates: {self}")
        if self.x_max < self.x_min or self.y_max < self.y_min:
            raise ValueError(f"inverted box: {self}")

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.x_min, self.y_min, self.x_max, self.y_max)

    @property
    def width(self) -> float:
        return self.x_max - self.x_min

    @property
    def height(self) -> float:
        return self.y_max - self.y_min

    @property
    def area(self) -> float:
        return self.width * self.height

    def to_xywh(self) -> tuple[float, float, float, float]:
        """COCO convention: top-left corner plus width/height."""
        return (self.x_min, self.y_min, self.width, self.height)

    @staticmethod
    def from_xywh(x: float, y: float, w: float, h: float) -> "BBox":
        return BBox(x, y, x + w, y + h)


def intersection_area(a: BBox, b: BBox) -> float:
    iw = min(a.x_max, b.x_max) - max(a.x_min, b.x_min)
    ih = min(a.y_max, b.y_max) - max(a.y_min, b.y_min)
    if iw <= 0.0 or ih <= 0.0:
        return 0.0
    return iw * ih


def iou(a: BBox, b: BBox) -> float:
    """Intersection over union; 0 when the union is empty (two zero-area boxes)."""
    inter = intersection_area(a, b)
    union = a.area + b.area - inter
    if union <= 0.0:
        return 0.0
    return inter / union


def box_iou(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``iou`` of xyxy boxes stacked as broadcastable (..., 4) arrays, entry by
    entry, with the same arithmetic, so each entry equals ``iou`` bit for bit."""
    iw = np.minimum(a[..., 2], b[..., 2]) - np.maximum(a[..., 0], b[..., 0])
    ih = np.minimum(a[..., 3], b[..., 3]) - np.maximum(a[..., 1], b[..., 1])
    inter = np.where((iw > 0.0) & (ih > 0.0), iw * ih, 0.0)
    area_a = (a[..., 2] - a[..., 0]) * (a[..., 3] - a[..., 1])
    area_b = (b[..., 2] - b[..., 0]) * (b[..., 3] - b[..., 1])
    union = area_a + area_b - inter
    nonempty = union > 0.0
    return np.where(nonempty, inter / np.where(nonempty, union, 1.0), 0.0)


def size_class_from_area(area: float) -> str:
    if area < 0.0:
        raise ValueError(f"negative area: {area}")
    if area < SMALL_MAX_AREA:
        return "S"
    if area < MEDIUM_MAX_AREA:
        return "M"
    return "L"
