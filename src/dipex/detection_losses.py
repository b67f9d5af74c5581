"""Detection-side losses: normalized L1 box regression, generalized IoU and
the sigmoid focal classification loss (with its logit derivative).

The box losses are reported for bookkeeping only.  The detector's box noise
does depend on the prompt, through its score, but training does not use
the box-loss gradient, so focal loss is the one detection term that trains
prompts.

Every loss takes single values (one xyxy box, a scalar) or arrays of them
(xyxy boxes stacked as (..., 4)) and returns a numpy value of the
broadcast shape, so training evaluates each once per epoch.
"""

from __future__ import annotations

import numpy as np

from .boxes import box_area, iou_and_union
from .detector import sigmoid

# Lin et al. 2017's class balance and focusing exponent
_ALPHA = 0.25
_GAMMA = 2.0


def _warn(message: str, *args) -> None:
    # logging is imported here, not at the top: only degenerate boxes need it,
    # and every dipex process would pay for its import
    import logging

    logging.getLogger(__name__).warning(message, *args)


def l1_box_loss(
    pred: np.ndarray,
    target: np.ndarray,
    image_width: float | np.ndarray,
    image_height: float | np.ndarray,
) -> np.ndarray:
    """Mean absolute difference over (cx, cy, w, h), each normalized by the
    image dimension along its axis (x-like by width, y-like by height).

    Takes two (4,) xyxy boxes or broadcastable (..., 4) xyxy arrays with
    per-box image sizes.
    """
    width = np.asarray(image_width, dtype=float)
    height = np.asarray(image_height, dtype=float)
    if np.any(width <= 0.0) or np.any(height <= 0.0):
        raise ValueError(f"image size must be positive: {image_width}x{image_height}")
    p, t = np.asarray(pred, dtype=float), np.asarray(target, dtype=float)
    degenerate = box_area(t) == 0.0
    if np.any(degenerate):
        _warn(
            "l1_box_loss: %d degenerate zero-area target(s), first %s",
            int(np.sum(degenerate)), t[degenerate].reshape(-1, 4)[0].tolist(),
        )
    pcx, pcy = 0.5 * (p[..., 0] + p[..., 2]), 0.5 * (p[..., 1] + p[..., 3])
    tcx, tcy = 0.5 * (t[..., 0] + t[..., 2]), 0.5 * (t[..., 1] + t[..., 3])
    pw, ph = p[..., 2] - p[..., 0], p[..., 3] - p[..., 1]
    tw, th = t[..., 2] - t[..., 0], t[..., 3] - t[..., 1]
    total = (
        np.abs(pcx - tcx) / width
        + np.abs(pcy - tcy) / height
        + np.abs(pw - tw) / width
        + np.abs(ph - th) / height
    )
    return total / 4.0


def giou(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Generalized IoU in [-1, 1]: IoU minus the hull's excess area fraction.

    Takes two (4,) xyxy boxes or broadcastable (..., 4) xyxy arrays.  Two
    zero-area boxes have no defined hull ratio; that degenerate case gives 0
    and is flagged on the module logger.
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    corners = [np.minimum(a[..., :2], b[..., :2]), np.maximum(a[..., 2:], b[..., 2:])]
    hull = box_area(np.concatenate(corners, axis=-1))  # of the smallest box enclosing both
    iou_val, union = iou_and_union(a, b)
    degenerate = hull <= 0.0
    if np.any(degenerate):
        _warn("giou: %d degenerate box pair(s) with empty hull", int(np.sum(degenerate)))
    safe_hull = np.where(degenerate, 1.0, hull)
    return np.where(degenerate, 0.0, iou_val - (hull - union) / safe_hull)


def sigmoid_focal_loss(
    logit: float | np.ndarray,
    target: float | np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Binary sigmoid focal loss and its derivative w.r.t. the logit.

    loss = -alpha_t * (1 - p_t)^gamma * log(p_t) with p_t the probability of
    the true class, alpha = ``_ALPHA`` and gamma = ``_GAMMA``.  Accepts
    scalars or broadcastable arrays of logits/targets in {0, 1}.
    Stable for |logit| up to ~1e3 (log-sigmoid via softplus).
    """
    x = np.asarray(logit, dtype=float)
    t = np.asarray(target, dtype=float)
    if not ((t == 0.0) | (t == 1.0)).all():
        raise ValueError("targets must be 0 or 1")
    sign = 2.0 * t - 1.0
    z = sign * x
    p_t, one_m_p_t = sigmoid(z), sigmoid(-z)
    log_p_t = -np.logaddexp(0.0, -z)  # log(p_t) = -log(1 + exp(-z)), without overflow
    alpha_t = t * _ALPHA + (1.0 - t) * (1.0 - _ALPHA)
    focus = one_m_p_t ** _GAMMA
    loss = -alpha_t * focus * log_p_t
    dloss = sign * alpha_t * focus * (_GAMMA * p_t * log_p_t - one_m_p_t)
    return loss, dloss


def giou_loss(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Standard form used in detection training: 1 - giou, in [0, 2]."""
    return 1.0 - giou(a, b)
