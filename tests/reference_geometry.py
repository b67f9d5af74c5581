"""Scalar geometry that only tests use.

The package computes these in arrays: every pairwise prompt angle at once
(`geometry.pairwise_angle_matrix`), box overlaps (`boxes.box_iou`) and COCO
boxes (`boxes.xyxy_to_xywh`).  The one-value forms here are what those are
checked against; `iou` is the oracle each `box_iou` entry must equal bit for
bit.
"""

from __future__ import annotations

import numpy as np

from dipex.boxes import BBox


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity with explicit normalization, clamped to [-1, 1]."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if na == 0.0 or nb == 0.0:
        raise ValueError("cosine undefined for zero vectors")
    return float(np.clip(float(a @ b) / (na * nb), -1.0, 1.0))


def angular_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Angle in radians between two vectors, in [0, pi]."""
    return float(np.arccos(cosine(a, b)))


def to_xywh(box: BBox) -> tuple[float, float, float, float]:
    """COCO convention: top-left corner plus width/height."""
    return (box.x_min, box.y_min, box.width, box.height)


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
