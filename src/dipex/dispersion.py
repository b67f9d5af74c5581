"""Dispersion losses over prompt embeddings with analytic gradients.

Two terms shape a cohort of K child prompts relative to a frozen parent:

* parent_child_loss: -(1/K) * sum_i cos(v_i, parent) / tau_p
  (temperature-scaled cosine attraction, linear in the cosine)
* child_child_loss: (1/K) * sum_i log[ (1/(K-1)) * sum_{j != i}
  exp(cos(v_i, v_j) / tau_c) ]  (contrastive repulsion between siblings)

Gradients are taken with respect to the raw vectors, differentiating through
the explicit normalization inside the cosine; callers re-project onto the
sphere after each step.  The inner log-sum-exp uses max subtraction so large
1/tau_c stays finite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

GradientSet = np.ndarray  # (K, d), row k is d(loss)/d(child k)


@dataclass(frozen=True)
class LossBreakdown:
    """Per-term values of the training objective together with the weighted
    total:  total = parent_child + gamma * child_child
                    + gamma_bbox * bbox + gamma_giou * giou + gamma_cls * cls
    """

    parent_child: float
    child_child: float
    bbox: float
    giou: float
    cls: float
    total: float


def _unit_rows(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # np.linalg.norm(mat, axis=1) computes exactly this, behind more checks
    norms = np.sqrt(np.add.reduce(mat * mat, axis=1))
    if not norms.all():
        raise ValueError("zero vector among children")
    return mat / norms[:, None], norms


def _cosines(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b clipped to [-1, 1], in place; np.clip gives the same values
    through a slower wrapper."""
    cos = a @ b
    np.maximum(cos, -1.0, out=cos)
    return np.minimum(cos, 1.0, out=cos)


def parent_child_loss(
    children: np.ndarray, parent: np.ndarray, tau_p: float
) -> tuple[float, GradientSet]:
    """Attraction of K >= 1 children toward a fixed parent.

    Returns (value, gradients) where gradients has one row per child.  At
    children == parent the value is -K/(K * tau_p) = -1/tau_p per child and
    the gradient vanishes (tangentially; the radial part is projected out by
    the caller's renormalization).
    """
    kids = np.asarray(children, dtype=float)
    if kids.ndim < 2:
        kids = kids.reshape(1, -1)
    par = np.asarray(parent, dtype=float)
    if kids.shape[0] < 1:
        raise ValueError("need at least one child")
    if kids.shape[1] != par.shape[0]:
        raise ValueError(
            f"dimension mismatch: children {kids.shape} vs parent {par.shape}"
        )
    if tau_p <= 0.0:
        raise ValueError(f"temperature must be positive, got {tau_p}")
    k = kids.shape[0]
    unit_kids, kid_norms = _unit_rows(kids)
    p_norm = float(np.sqrt(par.dot(par)))  # np.linalg.norm of a vector
    if p_norm == 0.0:
        raise ValueError("zero parent vector")
    unit_par = par / p_norm
    cos = _cosines(unit_kids, unit_par)
    value = float(-np.add.reduce(cos) / (k * tau_p))
    # d cos_i / d v_i = (p_hat - cos_i * v_hat_i) / ||v_i||
    grads = -(unit_par - cos[:, None] * unit_kids) / (k * tau_p * kid_norms[:, None])
    return value, grads


def child_child_loss(children: np.ndarray, tau_c: float) -> tuple[float, GradientSet]:
    """Contrastive repulsion among K >= 2 siblings.

    value = (1/K) * sum_i log[(1/(K-1)) * sum_{j != i} exp(cos_ij / tau_c)]

    The pairwise cosine appears in rows i and j, so the gradient for child k
    sums softmax weights from both directions:
        grad_k = 1/(K * tau_c) * sum_{j != k} (w_kj + w_jk)
                 * (v_hat_j - cos_kj * v_hat_k) / ||v_k||
    """
    kids = np.asarray(children, dtype=float)
    if kids.ndim < 2 or kids.shape[0] < 2:
        raise ValueError("child_child_loss needs at least two children")
    if tau_c <= 0.0:
        raise ValueError(f"temperature must be positive, got {tau_c}")
    k = kids.shape[0]
    unit, norms = _unit_rows(kids)
    cos = _cosines(unit, unit.T)
    x = cos / tau_c
    x.flat[:: k + 1] = -np.inf  # exclude self-pairs from each row
    row_max = np.maximum.reduce(x, axis=1)
    shifted = np.exp(x - row_max[:, None])
    row_sum = np.add.reduce(shifted, axis=1)
    # log mean exp over the K-1 off-diagonal entries of each row
    row_lse = row_max + np.log(row_sum) - np.log(k - 1)
    value = float(np.add.reduce(row_lse) / k)  # np.mean's arithmetic

    weights = shifted / row_sum[:, None]  # softmax over j != i, zero diagonal
    sym = weights + weights.T
    # grad_k = c * [ sum_j sym_kj * v_hat_j - (sum_j sym_kj * cos_kj) * v_hat_k ] / ||v_k||
    coeff = 1.0 / (k * tau_c)
    pull = sym @ unit
    radial = np.add.reduce(sym * cos, axis=1)
    grads = coeff * (pull - radial[:, None] * unit) / norms[:, None]
    return value, grads


def combine(
    parent_child: float,
    child_child: float,
    bbox: float,
    giou: float,
    cls: float,
    *,
    gamma: float,
    gamma_bbox: float = 5.0,
    gamma_giou: float = 2.0,
    gamma_cls: float = 1.0,
) -> LossBreakdown:
    """Weighted total of the loss terms, with each term kept for reporting.

    The terms may be floats or equal-length arrays (one entry per batch); the
    total is then taken entry by entry.
    """
    total = (
        parent_child
        + gamma * child_child
        + gamma_bbox * bbox
        + gamma_giou * giou
        + gamma_cls * cls
    )
    return LossBreakdown(parent_child, child_child, bbox, giou, cls, total)
