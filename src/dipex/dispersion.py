"""Dispersion losses over prompt embeddings with analytic gradients.

Two terms shape a cohort of K child prompts relative to a frozen parent:

* parent_child_loss: -(1/K) * sum_i cos(v_i, parent) / tau_p
  (temperature-scaled cosine attraction, linear in the cosine)
* child_child_loss: (1/K) * sum_i log[ (1/(K-1)) * sum_{j != i}
  exp(cos(v_i, v_j) / tau_c) ]  (contrastive repulsion between siblings)

Gradients are taken with respect to the raw vectors, differentiating through
the explicit normalization inside the cosine; callers re-project onto the
sphere after each step.  The inner log-sum-exp uses max subtraction so large
1/tau_c stays finite.  Both losses check and normalize their cohort in
``_cohort``, and ``combine`` weights the terms by an ``ExpansionConfig``.
Norms and clipped cosines come from ``geometry``, where the sphere
arithmetic is written once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import ExpansionConfig
from .geometry import cosines, normalize, unit_rows

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


def _cohort(children: np.ndarray, tau: float, least: int) -> tuple[int, np.ndarray, np.ndarray]:
    """(K, unit rows, row norms) of ``children``, K >= ``least`` rows of a 2-d
    array, checked with temperature ``tau`` > 0."""
    kids = np.asarray(children, dtype=float)
    if kids.ndim != 2 or kids.shape[0] < least:
        count = "one child" if least == 1 else f"{least} children"
        raise ValueError(f"need at least {count}, as the rows of a 2-d array; got shape {kids.shape}")
    if tau <= 0.0:
        raise ValueError(f"temperature must be positive, got {tau}")
    return (kids.shape[0], *unit_rows(kids))


def parent_child_loss(
    children: np.ndarray, parent: np.ndarray, tau_p: float
) -> tuple[float, GradientSet]:
    """Attraction of K >= 1 children toward a fixed parent.

    Returns (value, gradients) where gradients has one row per child.  At
    children == parent the value is -K/(K * tau_p) = -1/tau_p per child and
    the gradient vanishes (tangentially; the radial part is projected out by
    the caller's renormalization).
    """
    k, unit_kids, kid_norms = _cohort(children, tau_p, 1)
    par = np.asarray(parent, dtype=float)
    if unit_kids.shape[1:] != par.shape:
        raise ValueError(f"dimension mismatch: children {unit_kids.shape} vs parent {par.shape}")
    unit_par = normalize(par)
    cos = cosines(unit_kids, unit_par)
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
    k, unit, norms = _cohort(children, tau_c, 2)
    cos = cosines(unit, unit.T)
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
    config: ExpansionConfig,
) -> LossBreakdown:
    """Weighted total of the loss terms, with each term kept for reporting;
    the weights are ``config``'s, as the training gradient's are.

    The terms may be floats or equal-shape arrays (one entry per epoch and
    batch); the total is then taken entry by entry.
    """
    total = (
        parent_child
        + config.gamma * child_child
        + config.gamma_bbox * bbox
        + config.gamma_giou * giou
        + config.gamma_cls * cls
    )
    return LossBreakdown(parent_child, child_child, bbox, giou, cls, total)
