"""References for the training kernel and the training round.

``reference_batch`` is the scalar training step that `expansion._batch_step`
replaced: one scene at a time, one pseudo-label at a time, with the focal
loss called per label and the scalar box-loss formulas per matched label on
`BBox` objects.  The kernel sums a prompt's terms in one matrix product
rather than label by label, so it must reproduce this step's gradient and
loss sums within 1e-12 and its label counts exactly.

``reference_round`` is the per-batch round loop that `expansion.train_round`
replaced: every batch gathers its scenes by index, scatters its gradient
with ``np.add.at``, computes its own box losses and its own weighted total,
and the dispersion losses are the plain formulas of
``reference_parent_child`` and ``reference_child_child``.  A round must
reproduce its prompts within 1e-12, every float of its ``RoundStats``
within a relative 1e-12 and every count exactly.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass

import numpy as np

from dipex.boxes import BBox, box_iou
from dipex.detection_losses import giou_loss as array_giou_loss
from dipex.detection_losses import l1_box_loss as array_l1_box_loss
from dipex.detection_losses import sigmoid_focal_loss
from dipex.detector import _noise_direction, candidate_detections, pack_world
from dipex.dispersion import LossBreakdown, combine
from dipex.expansion import RoundStats, _label_table

from reference_geometry import intersection_area
from reference_world import scene_objects, scenes_of


def cxcywh(box: BBox) -> tuple[float, float, float, float]:
    cx, cy = 0.5 * (box.x_min + box.x_max), 0.5 * (box.y_min + box.y_max)
    return (cx, cy, box.width, box.height)


def hull_area(a: BBox, b: BBox) -> float:
    """Area of the smallest box enclosing both inputs."""
    return (max(a.x_max, b.x_max) - min(a.x_min, b.x_min)) * (
        max(a.y_max, b.y_max) - min(a.y_min, b.y_min)
    )


def l1_box_loss(pred: BBox, target: BBox, image_width: float, image_height: float) -> float:
    """Mean absolute (cx, cy, w, h) difference, normalized per image axis."""
    pcx, pcy, pw, ph = cxcywh(pred)
    tcx, tcy, tw, th = cxcywh(target)
    terms = (
        abs(pcx - tcx) / image_width,
        abs(pcy - tcy) / image_height,
        abs(pw - tw) / image_width,
        abs(ph - th) / image_height,
    )
    return sum(terms) / 4.0


def giou(a: BBox, b: BBox) -> float:
    """Generalized IoU; 0 for two boxes whose hull has no area."""
    hull = hull_area(a, b)
    if hull <= 0.0:
        return 0.0
    inter = intersection_area(a, b)
    union = a.area + b.area - inter
    iou_val = inter / union if union > 0.0 else 0.0
    return iou_val - (hull - union) / hull


def giou_loss(a: BBox, b: BBox) -> float:
    return 1.0 - giou(a, b)


@dataclass
class BatchTally:
    """One batch's loss sums and label counts."""

    cls_sum: float = 0.0
    bbox_sum: float = 0.0
    giou_sum: float = 0.0
    num_assigned: int = 0
    num_missed: int = 0


def mean_breakdown(parts):
    """Each term's mean over the batches ``parts``, summed left to right.

    The builtin ``sum()`` of floats is compensated from Python 3.12 on, so
    it would round differently; this loop adds in batch order everywhere.
    """
    totals = [0.0] * len(astuple(parts[0]))
    for part in parts:
        totals = [t + v for t, v in zip(totals, astuple(part))]
    return LossBreakdown(*(t / len(parts) for t in totals))


@dataclass
class SceneData:
    """Static per-scene tensors shared by every training step of a round."""

    scene: object
    emb: np.ndarray        # (n_obj, dim) unit object embeddings
    gt: np.ndarray         # (n_obj, 4) ground-truth xyxy
    sqrt_area: np.ndarray  # (n_obj,)
    dirs: np.ndarray       # (n_obj, 2) hashed unit shift directions
    label_boxes: np.ndarray  # (n_lab, 4) xyxy
    labels: list           # PseudoLabel in the same order


def scene_data(world, labels, seed: int) -> dict[int, SceneData]:
    out = {}
    for scene in scenes_of(world):
        objs = scene_objects(world, scene)
        gt = np.array([o.bbox.as_tuple() for o in objs], dtype=float)
        scene_labels = [l for l in labels if l.scene_id == scene.id]
        lab = (
            np.array([l.bbox.as_tuple() for l in scene_labels], dtype=float)
            if scene_labels
            else np.zeros((0, 4))
        )
        out[scene.id] = SceneData(
            scene=scene,
            emb=np.stack([o.embedding for o in objs]),
            gt=gt,
            sqrt_area=np.sqrt((gt[:, 2] - gt[:, 0]) * (gt[:, 3] - gt[:, 1])),
            dirs=np.array([_noise_direction(seed, scene.id, o.id) for o in objs], dtype=float),
            label_boxes=lab,
            labels=scene_labels,
        )
    return out


def candidate_grid(sd: SceneData, prompts: np.ndarray, params):
    """(logits, scores, boxes) for every (prompt, object) pair of one scene."""
    norms = np.linalg.norm(prompts, axis=1, keepdims=True)
    cos = np.clip((prompts / norms) @ sd.emb.T, -1.0, 1.0)
    logits = params.logit_scale * cos + params.logit_bias
    scores = 1.0 / (1.0 + np.exp(-np.clip(logits, -60.0, 60.0)))
    mag = params.box_noise * (1.0 - scores) * sd.sqrt_area[None, :]
    dx = mag * sd.dirs[None, :, 0]
    dy = mag * sd.dirs[None, :, 1]
    w, h = float(sd.scene.width), float(sd.scene.height)
    x0 = np.minimum(np.maximum(sd.gt[None, :, 0] + dx, 0.0), w)
    y0 = np.minimum(np.maximum(sd.gt[None, :, 1] + dy, 0.0), h)
    x1 = np.maximum(x0, np.minimum(np.maximum(sd.gt[None, :, 2] + dx, 0.0), w))
    y1 = np.maximum(y0, np.minimum(np.maximum(sd.gt[None, :, 3] + dy, 0.0), h))
    boxes = np.stack([x0, y0, x1, y1], axis=-1)
    return logits, scores, boxes


def iou_grid(boxes: np.ndarray, label_boxes: np.ndarray) -> np.ndarray:
    """IoU between candidate boxes (n_p, n_o, 4) and labels (n_l, 4)."""
    a = boxes[:, :, None, :]
    b = label_boxes[None, None, :, :]
    iw = np.minimum(a[..., 2], b[..., 2]) - np.maximum(a[..., 0], b[..., 0])
    ih = np.minimum(a[..., 3], b[..., 3]) - np.maximum(a[..., 1], b[..., 1])
    inter = np.where((iw > 0.0) & (ih > 0.0), iw * ih, 0.0)
    area_a = (a[..., 2] - a[..., 0]) * (a[..., 3] - a[..., 1])
    area_b = (b[..., 2] - b[..., 0]) * (b[..., 3] - b[..., 1])
    union = area_a + area_b - inter
    return np.where(union > 0.0, inter / np.where(union > 0.0, union, 1.0), 0.0)


def accumulate_scene(sd: SceneData, V, row_trainable, params, config, grad, tally) -> None:
    """Match one scene's labels against current candidates; add focal terms.

    Per label, every candidate with IoU above the floor counts, per prompt
    only its best score survives, and the best-scoring prompt (ties to the
    lowest id; rows are in id order) is the responsible one with focal
    target 1, the rest target 0.
    """
    if sd.label_boxes.shape[0] == 0:
        return
    logits, scores, boxes = candidate_grid(sd, V, params)
    ious = iou_grid(boxes, sd.label_boxes)
    norms = np.linalg.norm(V, axis=1)
    unit = V / norms[:, None]
    cos = np.clip(unit @ sd.emb.T, -1.0, 1.0)

    for li, label in enumerate(sd.labels):
        matched_mask = ious[:, :, li] >= config.label_iou_min
        rows = np.flatnonzero(matched_mask.any(axis=1))
        if rows.size == 0:
            tally.num_missed += 1
            continue
        tally.num_assigned += 1
        masked_scores = np.where(matched_mask[rows], scores[rows], -np.inf)
        best_obj = np.argmax(masked_scores, axis=1)
        best_scores = masked_scores[np.arange(rows.size), best_obj]
        responsible_pos = int(np.argmax(best_scores))

        sel_logits = logits[rows, best_obj]
        targets = np.zeros(rows.size)
        targets[responsible_pos] = 1.0
        losses, dlosses = sigmoid_focal_loss(sel_logits, targets)
        tally.cls_sum += float(np.sum(losses))

        for k in np.flatnonzero(row_trainable[rows]):
            r = rows[k]
            o = best_obj[k]
            coeff = float(dlosses[k]) * params.logit_scale
            grad[r] += coeff * (sd.emb[o] - cos[r, o] * unit[r]) / norms[r]

        r_row = rows[responsible_pos]
        r_obj = best_obj[responsible_pos]
        cand = BBox(*(float(v) for v in boxes[r_row, r_obj]))
        tally.bbox_sum += l1_box_loss(cand, label.bbox, sd.scene.width, sd.scene.height)
        tally.giou_sum += giou_loss(cand, label.bbox)


def reference_batch(data, batch_ids, V, row_trainable, params, config):
    """(tally, grad) of one batch of scene ids, scene by scene in batch order."""
    grad = np.zeros_like(V)
    tally = BatchTally()
    for sid in batch_ids:
        accumulate_scene(data[int(sid)], V, row_trainable, params, config, grad, tally)
    return tally, grad


def reference_parent_child(children, parent, tau_p):
    """``dispersion.parent_child_loss`` through numpy's generic wrappers."""
    kids = np.atleast_2d(np.asarray(children, dtype=float))
    par = np.asarray(parent, dtype=float)
    k = kids.shape[0]
    norms = np.linalg.norm(kids, axis=1)
    unit_kids = kids / norms[:, None]
    unit_par = par / float(np.linalg.norm(par))
    cos = np.clip(unit_kids @ unit_par, -1.0, 1.0)
    value = float(-np.sum(cos) / (k * tau_p))
    grads = -(unit_par[None, :] - cos[:, None] * unit_kids) / (k * tau_p * norms[:, None])
    return value, grads


def reference_child_child(children, tau_c):
    """``dispersion.child_child_loss`` through numpy's generic wrappers."""
    kids = np.atleast_2d(np.asarray(children, dtype=float))
    k = kids.shape[0]
    norms = np.linalg.norm(kids, axis=1)
    unit = kids / norms[:, None]
    cos = np.clip(unit @ unit.T, -1.0, 1.0)
    x = cos / tau_c
    np.fill_diagonal(x, -np.inf)
    row_max = np.max(x, axis=1)
    shifted = np.exp(x - row_max[:, None])
    row_sum = np.sum(shifted, axis=1)
    row_lse = row_max + np.log(row_sum) - np.log(k - 1)
    value = float(np.mean(row_lse))
    weights = shifted / row_sum[:, None]
    sym = weights + weights.T
    pull = sym @ unit
    radial = np.sum(sym * cos, axis=1)
    grads = (1.0 / (k * tau_c)) * (pull - radial[:, None] * unit) / norms[:, None]
    return value, grads


def reference_step(scenes, table, rows, V, labels, params, config):
    """(tally, grad) of the scenes ``rows`` of a round's packed ``scenes``
    and label ``table``: the batched step with index gathers, a
    ``take_along_axis`` matcher, an ``np.add.at`` scatter and its own box
    losses.  The gradient covers every prompt, frozen or not; the misses are
    the batch's labels in ``labels``, the round's ``PseudoLabelSet``, less
    the assigned ones."""
    norms = np.linalg.norm(V, axis=1)
    unit = V / norms[:, None]
    cos, logits, scores, boxes = candidate_detections(scenes.take(rows), unit, params)
    ious = box_iou(boxes[..., None, :], table[rows][:, None, None])
    masked = np.where(ious >= config.label_iou_min, scores[..., None], -np.inf)
    best_obj = np.argmax(masked, axis=2)
    best = np.take_along_axis(masked, best_obj[:, :, None], axis=2)[:, :, 0]
    has = best > -np.inf
    responsible, assigned = np.argmax(best, axis=1), has.any(axis=1)

    grad = np.zeros_like(V)
    num_labels = int(np.count_nonzero(np.isin(labels.scene_ids, rows)))
    num_assigned = int(np.count_nonzero(assigned))
    tally = BatchTally(num_assigned=num_assigned, num_missed=num_labels - num_assigned)
    if num_assigned == 0:
        return tally, grad

    s, l, p = np.nonzero(has.transpose(0, 2, 1))
    o = best_obj[s, p, l]
    losses, dlosses = sigmoid_focal_loss(logits[s, p, o], (p == responsible[s, l]).astype(float))
    per_label = has.sum(axis=1)[assigned]
    starts = np.cumsum(per_label) - per_label
    tally.cls_sum = in_order_sum(
        np.array([losses[a : a + k].sum() for a, k in zip(starts.tolist(), per_label.tolist())])
    )

    coeff = dlosses * params.logit_scale
    terms = coeff[:, None] * (scenes.emb[rows[s], o] - cos[s, p, o][:, None] * unit[p])
    terms = terms / norms[p][:, None]
    flat = (p[:, None] * V.shape[1] + np.arange(V.shape[1])).reshape(-1)
    np.add.at(grad.reshape(-1), flat, terms.reshape(-1))

    s, l = np.nonzero(assigned)
    p = responsible[s, l]
    cand = boxes[s, p, best_obj[s, p, l]]
    target = table[rows[s], l]
    size = scenes.size[rows[s]]
    tally.bbox_sum = in_order_sum(array_l1_box_loss(cand, target, size[:, 0], size[:, 1]))
    tally.giou_sum = in_order_sum(array_giou_loss(cand, target))
    return tally, grad


def in_order_sum(values):
    return float(np.add.accumulate(values)[-1])


def reference_round(tree, labels, world, config, params, rng):
    """``train_round`` batch by batch; returns (new trainable rows, stats)
    and leaves ``tree`` as it was."""
    ids = tree.ids
    row_trainable = np.array([nid not in tree.parent_queue for nid in ids])
    V = tree.embedding_matrix()
    cohort_rows = np.array([ids.index(c) for c in tree.cohort], dtype=int)
    use_dispersion = cohort_rows.size >= 2
    parent_vec = tree.nodes[tree.parent_queue[-1]].embedding if use_dispersion else None
    scenes = pack_world(world, config.seed)
    num_scenes = len(scenes.size)
    table = _label_table(labels, num_scenes)
    stats = RoundStats([], [], len(labels))
    for _ in range(config.epochs_per_round):
        order = rng.permutation(num_scenes)
        breakdowns = []
        epoch_assigned = epoch_missed = 0
        for start in range(0, order.size, config.batch_size):
            batch = order[start : start + config.batch_size]
            tally, grad_cls = reference_step(scenes, table, batch, V, labels, params, config)
            denom = max(tally.num_assigned, 1)
            grad_cls /= denom
            epoch_assigned += tally.num_assigned
            epoch_missed += tally.num_missed
            if use_dispersion:
                pc_value, pc_grad = reference_parent_child(V[cohort_rows], parent_vec, config.tau_parent)
                cc_value, cc_grad = reference_child_child(V[cohort_rows], config.tau_child)
            else:
                pc_value, cc_value = 0.0, 0.0
            breakdowns.append(combine(
                pc_value, cc_value, tally.bbox_sum / denom, tally.giou_sum / denom,
                tally.cls_sum / denom, config,
            ))
            total_grad = config.gamma_cls * grad_cls
            if use_dispersion:
                total_grad[cohort_rows] += pc_grad + config.gamma * cc_grad
            step = config.learning_rate * total_grad
            moved = (step != 0.0).any(axis=1) & row_trainable
            if moved.any():
                upd = V[moved] - step[moved]
                V[moved] = upd / np.linalg.norm(upd, axis=1, keepdims=True)
        stats.epoch_losses.append(mean_breakdown(breakdowns))
        stats.epoch_norm_error.append(
            float(np.max(np.abs(np.linalg.norm(V[row_trainable], axis=1) - 1.0)))
        )
        stats.assignments_final = epoch_assigned
        stats.misses_final = epoch_missed
    return V, stats
