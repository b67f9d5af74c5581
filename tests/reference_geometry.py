"""Scalar geometry that only tests use.

The package computes these in arrays: every pairwise prompt angle at once
(`geometry.pairwise_angle_matrix`) and COCO boxes in the annotation writer.
The one-value forms here are what those are checked against.
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
