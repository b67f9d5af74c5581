"""Unit-hypersphere geometry: normalization, angular distances, Givens plane
rotations for spawning child prompts, and maximum angular coverage.

Vectors are plain float64 numpy arrays of shape (d,), kept at unit Euclidean
norm by construction (the ``UnitVec`` alias documents intent only).  Rotations
follow the row-vector convention ``v @ R`` where the rotation matrix carries
cos(angle) on the two diagonal entries, -sin(angle) at (i, j) and +sin(angle)
at (j, i).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

UnitVec = np.ndarray
AngleMatrix = np.ndarray


def normalize(v: np.ndarray) -> UnitVec:
    """Return v scaled to unit Euclidean norm.

    Raises ValueError on zero or non-finite input; normalizing an
    already-unit vector is idempotent up to float rounding.
    """
    arr = np.asarray(v, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"expected a 1-d vector, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("vector has non-finite entries")
    norm = float(np.linalg.norm(arr))
    if norm == 0.0:
        raise ValueError("cannot normalize the zero vector")
    return arr / norm


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


@dataclass(frozen=True)
class GivensRotation:
    """Plane rotation acting on coordinate axes (axis_i, axis_j) by ``angle``
    radians.  The two axes must differ; both are 0-based."""

    axis_i: int
    axis_j: int
    angle: float

    def __post_init__(self) -> None:
        if self.axis_i < 0 or self.axis_j < 0:
            raise ValueError(f"axes must be non-negative: {self}")
        if self.axis_i == self.axis_j:
            raise ValueError(f"rotation axes must differ: {self}")
        if not np.isfinite(self.angle):
            raise ValueError(f"non-finite rotation angle: {self}")


def apply_rotation(v: np.ndarray, rotation: GivensRotation) -> np.ndarray:
    """Rotate a row vector: out = v @ R.

    Only the two plane coordinates change:
        out[i] = v[i] * cos(t) + v[j] * sin(t)
        out[j] = -v[i] * sin(t) + v[j] * cos(t)
    Norm is preserved exactly up to float rounding.
    """
    arr = np.asarray(v, dtype=float)
    d = arr.shape[0]
    i, j = rotation.axis_i, rotation.axis_j
    if i >= d or j >= d:
        raise ValueError(f"rotation axes ({i}, {j}) out of range for dimension {d}")
    c = np.cos(rotation.angle)
    s = np.sin(rotation.angle)
    out = arr.copy()
    out[i] = arr[i] * c + arr[j] * s
    out[j] = -arr[i] * s + arr[j] * c
    return out


def sample_child_rotations(
    parent: UnitVec,
    count: int,
    max_angle: float,
    rng: np.random.Generator | int | None,
) -> list[GivensRotation]:
    """Draw ``count`` random plane rotations for spawning children of ``parent``.

    Each rotation picks an ordered pair of distinct axes uniformly and an
    angle uniform in [-max_angle, +max_angle].  Axis pairs are sampled
    independently per child and may repeat across children.  Deterministic
    given an integer seed or a Generator in a known state.
    """
    d = int(np.asarray(parent).shape[0])
    if d < 2:
        raise ValueError("need dimension >= 2 to rotate")
    if count < 1:
        raise ValueError(f"count must be positive, got {count}")
    if not (0.0 <= max_angle <= np.pi):
        raise ValueError(f"max_angle must lie in [0, pi], got {max_angle}")
    gen = np.random.default_rng(rng)
    rotations = []
    for _ in range(count):
        i, j = gen.choice(d, size=2, replace=False)
        angle = gen.uniform(-max_angle, max_angle)
        rotations.append(GivensRotation(int(i), int(j), float(angle)))
    return rotations


def pairwise_angle_matrix(prompts: Sequence[np.ndarray]) -> AngleMatrix:
    """Symmetric (n, n) matrix of pairwise angles in radians, zero diagonal."""
    if len(prompts) < 1:
        raise ValueError("need at least one prompt")
    mat = np.stack([np.asarray(p, dtype=float) for p in prompts])
    norms = np.linalg.norm(mat, axis=1)
    if np.any(norms == 0.0):
        raise ValueError("zero vector in prompt set")
    unit = mat / norms[:, None]
    cos = np.clip(unit @ unit.T, -1.0, 1.0)
    angles = np.arccos(cos)
    np.fill_diagonal(angles, 0.0)
    # arccos of a clipped symmetric matrix is symmetric up to rounding; force it.
    return 0.5 * (angles + angles.T)


def mac(prompts: Sequence[np.ndarray], angles: AngleMatrix | None = None) -> float:
    """Maximum angular coverage: the largest pairwise angle in the set.

    Requires at least two prompts; returns radians in [0, pi].  A caller
    that already holds the prompts' ``pairwise_angle_matrix`` passes it as
    ``angles`` instead of having it built again.
    """
    if len(prompts) < 2:
        raise ValueError("maximum angular coverage needs at least two prompts")
    if angles is None:
        angles = pairwise_angle_matrix(prompts)
    iu = np.triu_indices(angles.shape[0], k=1)
    return float(np.max(angles[iu]))
