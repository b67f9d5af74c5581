"""Axis-aligned boxes in pixel coordinates, and the one place box arithmetic
is written: area, IoU with its union, xyxy -> xywh and the COCO size rule,
on xyxy boxes stacked as (..., 4) arrays, for every other module."""

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

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        """The (4,) xyxy array, so that array code such as the box losses
        reads a BBox as one box."""
        return np.array(self.as_tuple(), dtype=dtype)

    @property
    def width(self) -> float:
        return self.x_max - self.x_min

    @property
    def height(self) -> float:
        return self.y_max - self.y_min

    @property
    def area(self) -> float:
        return self.width * self.height

    @staticmethod
    def from_xywh(x: float, y: float, w: float, h: float) -> "BBox":
        return BBox(x, y, x + w, y + h)


def box_area(b: np.ndarray) -> np.ndarray:
    """Width times height of each box, as ``BBox.area``."""
    return (b[..., 2] - b[..., 0]) * (b[..., 3] - b[..., 1])


def iou_and_union(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """IoU and union area of broadcastable box arrays, entry by entry; the
    IoU is 0 where the union is empty (two zero-area boxes)."""
    iw = np.minimum(a[..., 2], b[..., 2]) - np.maximum(a[..., 0], b[..., 0])
    ih = np.minimum(a[..., 3], b[..., 3]) - np.maximum(a[..., 1], b[..., 1])
    inter = np.where((iw > 0.0) & (ih > 0.0), iw * ih, 0.0)
    union = box_area(a) + box_area(b) - inter
    nonempty = union > 0.0
    return np.where(nonempty, inter / np.where(nonempty, union, 1.0), 0.0), union


def box_iou(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The IoU of ``iou_and_union``; each entry equals the scalar ``iou`` of
    tests/reference_geometry.py bit for bit, by the same operations in order."""
    return iou_and_union(a, b)[0]


def xyxy_to_xywh(b: np.ndarray) -> np.ndarray:
    """COCO's (x, y, width, height) of each box of an (n, 4) array."""
    return np.concatenate([b[:, :2], b[:, 2:] - b[:, :2]], axis=1)


def size_class(area: np.ndarray) -> np.ndarray:
    """Index into ``SIZE_CLASSES`` of each area, by the COCO rule above, as
    the scalar ``size_bucket`` in tests/reference_eval.py."""
    return np.searchsorted(np.array([SMALL_MAX_AREA, MEDIUM_MAX_AREA]), area, side="right")
