"""Deterministic simulated grounded detector.

Scoring is a calibrated cosine head: logit = a * cos(prompt, object) + b.
Submitting several semantically close prompts in one query degrades the whole
query via a multiplicative overlap penalty (the query-interference failure
mode this package exists to study); submitting prompts one at a time and
merging predictions afterwards avoids it.  Localization is the ground-truth
box displaced along a direction hashed from (seed, scene, object) by an
amount that shrinks as confidence grows.

The detector works on a whole world at once.  ``pack_world`` lays its scenes
out as dense (scene, object) arrays, once per world and seed: the read-only
pack is cached on the world and shared by every later call.
``candidate_detections`` scores every (scene, prompt, object) triple, with
its box, in one pass.  Training, activation counting, the per-prompt label
passes and both query modes all start from that grid.  Detections stay
arrays: ``detect_world`` returns one ``ScoredBoxes`` per scene and
``detect_each`` one per prompt, and ``detections_to_coco`` writes their
rows.

``DetectorParams`` and ``VocabularyConfig`` live in ``dipex.config`` and
are re-exported here.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, fields
from enum import Enum
from typing import Mapping, Sequence

import numpy as np

from .boxes import box_area, xyxy_to_xywh
from .config import DetectorParams, VocabularyConfig
from .geometry import apply_rotation, cosines, normalize, sample_child_rotations
from .pseudo_labels import ScoredBoxes, soft_nms
from .world import World


class QueryMode(Enum):
    QUERY_MERGING = "query-merging"  # all prompts in one query, penalty applies
    PREDICTION_MERGING = "prediction-merging"  # one pass per prompt, then soft-NMS


def sigmoid(x: np.ndarray | float) -> np.ndarray | float:
    """The logistic 1 / (1 + exp(-x)), with x clipped to [-60, 60]."""
    return 1.0 / (1.0 + np.exp(-np.minimum(np.maximum(x, -60.0), 60.0)))


def overlap_penalty(prompts: Sequence[np.ndarray], params: DetectorParams) -> float:
    """exp(-strength * sum over pairs closer than the overlap threshold of
    (cos angle - cos threshold)).  Equals 1 when no pair is that close."""
    if len(prompts) < 2:
        return 1.0
    return _overlap_penalty(np.stack([normalize(p) for p in prompts]), params)


def _overlap_penalty(unit: np.ndarray, params: DetectorParams) -> float:
    """``overlap_penalty`` of the prompts whose unit rows are ``unit``."""
    cos = cosines(unit, unit.T)
    cos_ov = math.cos(params.overlap_threshold)
    iu = np.triu_indices(unit.shape[0], k=1)
    excess = cos[iu] - cos_ov
    total = float(np.sum(excess[excess > 0.0]))
    return math.exp(-params.penalty_strength * total)


def _noise_direction(seed: int, scene_id: int, object_id: int) -> tuple[float, float]:
    """Fixed unit displacement direction per (seed, scene, object)."""
    digest = hashlib.sha256(f"{seed}:{scene_id}:{object_id}".encode()).digest()
    phi = 2.0 * math.pi * (int.from_bytes(digest[:8], "big") / 2.0 ** 64)
    return math.cos(phi), math.sin(phi)


def unit_prompts(prompts: Sequence[tuple[int, np.ndarray]]) -> tuple[np.ndarray, np.ndarray]:
    """(ids, unit rows) of (id, vector) prompts, in the given order."""
    ids = [int(pid) for pid, _ in prompts]
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate prompt ids")
    return np.array(ids, dtype=int), np.stack([normalize(vec) for _, vec in prompts])


@dataclass(frozen=True)
class SceneArrays:
    """A world's scenes as dense arrays: row s is scene s.

    Scenes with fewer objects than the widest one are padded with object id
    -1, a zero embedding and an all-zero box, which overlaps nothing.
    """

    object_ids: np.ndarray  # (S, O), -1 marks padding
    emb: np.ndarray         # (S, O, dim) unit object embeddings
    gt: np.ndarray          # (S, O, 4) ground-truth xyxy
    sqrt_area: np.ndarray   # (S, O)
    dirs: np.ndarray        # (S, O, 2) hashed unit shift directions
    size: np.ndarray        # (S, 2) scene width, height

    def take(self, index: np.ndarray | slice) -> "SceneArrays":
        """The scenes ``index`` picks, in its order; a slice gives views."""
        return SceneArrays(*(getattr(self, f.name)[index] for f in fields(self)))


def pack_world(world: World, seed: int) -> SceneArrays:
    """The world's scenes as read-only ``SceneArrays``, shift directions
    hashed with ``seed``.  The first call for a seed builds them and caches
    them on the world; later calls return the same record."""
    packed = world._packs.get(seed)
    if packed is None:
        packed = world._packs[seed] = _pack(world, seed)
    return packed


def _pack(world: World, seed: int) -> SceneArrays:
    object_ids = world.object_ids
    real = object_ids >= 0
    rows, ids = np.nonzero(real)[0], object_ids[real]
    emb = np.zeros(object_ids.shape + (world.embeddings.shape[1],))
    emb[real] = world.embeddings[ids]
    gt = np.zeros(object_ids.shape + (4,))
    gt[real] = world.boxes[ids]
    dirs = np.zeros(object_ids.shape + (2,))
    dirs[real] = [_noise_direction(seed, sid, oid) for sid, oid in zip(rows.tolist(), ids.tolist())]
    packed = SceneArrays(
        object_ids=object_ids,
        emb=emb,
        gt=gt,
        sqrt_area=np.sqrt(box_area(gt)),
        dirs=dirs,
        size=world.scene_sizes.astype(float),
    )
    for f in fields(packed):
        getattr(packed, f.name).setflags(write=False)
    return packed


def candidate_detections(
    scenes: SceneArrays, unit: np.ndarray, params: DetectorParams
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(cos, logits, scores, boxes) of every (scene, prompt, object) triple.

    ``unit`` holds unit prompts, one per row.  Arrays are shaped (n_scene,
    n_prompt, n_obj), boxes with a trailing xyxy axis.  There is no
    threshold and no cap: training consumes every candidate, because the
    score floor that governs reported detections would silence the gradient
    signal of weak prompts.
    """
    cos = cosines(unit, scenes.emb.transpose(0, 2, 1))
    logits = params.logit_scale * cos + params.logit_bias
    scores = sigmoid(logits)
    return cos, logits, scores, _noisy_boxes(scenes, scores, params)


def _noisy_boxes(scenes: SceneArrays, scores: np.ndarray, params: DetectorParams) -> np.ndarray:
    """Ground-truth boxes translated by box_noise * (1 - score) * sqrt(area)
    along each object's hashed direction and clipped to the scene; ``scores``
    is shaped (n_scene, n_prompt, n_obj)."""
    mag = params.box_noise * (1.0 - scores) * scenes.sqrt_area[:, None, :]
    dirs = scenes.dirs[:, None]
    dx, dy = mag * dirs[..., 0], mag * dirs[..., 1]
    gt = scenes.gt[:, None]
    w, h = scenes.size.T[..., None, None]
    boxes = np.empty(mag.shape + (4,))
    x0, y0, x1, y1 = (boxes[..., k] for k in range(4))
    np.minimum(np.maximum(gt[..., 0] + dx, 0.0), w, out=x0)
    np.minimum(np.maximum(gt[..., 1] + dy, 0.0), h, out=y0)
    np.maximum(x0, np.minimum(np.maximum(gt[..., 2] + dx, 0.0), w), out=x1)
    np.maximum(y0, np.minimum(np.maximum(gt[..., 3] + dy, 0.0), h), out=y1)
    return boxes


def _canonical(scores: np.ndarray, pids: np.ndarray, boxes: np.ndarray, *groups) -> np.ndarray:
    """Stable order by (groups..., -score, prompt id, box): reporting order."""
    keys = (boxes[:, 3], boxes[:, 2], boxes[:, 1], boxes[:, 0], pids, -scores)
    return np.lexsort(keys + groups[::-1])


def _reported(
    groups: np.ndarray, pids: np.ndarray, scores: np.ndarray, boxes: np.ndarray, params: DetectorParams
) -> np.ndarray:
    """Indices of the detections reported from flat candidates: each group
    in canonical order, scores below the detection threshold dropped, the
    first max_detections kept.  Both query modes report by this rule."""
    keep = np.flatnonzero(scores >= params.score_threshold)
    order = keep[_canonical(scores[keep], pids[keep], boxes[keep], groups[keep])]
    g = groups[order]
    rank = np.arange(g.size) - np.searchsorted(g, g)
    return order[rank < params.max_detections]


def _merge_groups(
    groups: np.ndarray, pids: np.ndarray, scores: np.ndarray, boxes: np.ndarray, params: DetectorParams
) -> tuple[np.ndarray, np.ndarray]:
    """Prediction merging of flat candidates, every group at once: one
    grouped soft-NMS call over the candidates in canonical order, then the
    survivors reported by their suppressed scores.  Returns (indices into
    the inputs, suppressed scores), ordered by group, then canonically.
    """
    order = _canonical(scores, pids, boxes, groups)
    kept = soft_nms(scores[order], params.nms_sigma, params.nms_floor, boxes[order], groups[order])
    pick = order[np.array([i for i, _ in kept], dtype=int)]
    final = np.array([score for _, score in kept])
    out = _reported(groups[pick], pids[pick], final, boxes[pick], params)
    return pick[out], final[out]


def detect_world(
    world: World,
    prompts: Sequence[tuple[int, np.ndarray]],
    mode: QueryMode,
    params: DetectorParams,
    seed: int = 0,
) -> dict[int, ScoredBoxes]:
    """Run every scene through the detector under the given merging policy:
    one ``ScoredBoxes`` per scene, empty or not, keyed by scene id in id
    order.

    Query merging submits the whole prompt set at once: every score is
    sigmoid(logit) * overlap_penalty(set) and each object is reported once
    under its best prompt (ties to the lowest prompt id), its box placed by
    that penalized score.  Prediction merging runs each prompt alone
    (penalty 1), unions the passes and applies Gaussian soft-NMS per scene.
    Both modes then report by one rule, ``_reported``: each scene ordered
    by (-score, prompt id, box), thresholded and capped.
    """
    ids, unit = unit_prompts(prompts)
    scenes = pack_world(world, seed)
    _, _, scores, boxes = candidate_detections(scenes, unit, params)
    valid = (scenes.object_ids >= 0)[:, None, :]
    if mode is QueryMode.QUERY_MERGING:
        scores = scores * _overlap_penalty(unit, params)
        tied = scores == scores.max(axis=1, keepdims=True)
        best = np.argmin(np.where(tied, ids[None, :, None], ids.max() + 1), axis=1)
        scores = np.take_along_axis(scores, best[:, None], axis=1)
        boxes = _noisy_boxes(scenes, scores, params)
        s, _, o = np.nonzero(valid)
        scores, boxes = scores[s, 0, o], boxes[s, 0, o]
        pick = _reported(s, ids[best[s, o]], scores, boxes, params)
        final = scores[pick]
    elif mode is QueryMode.PREDICTION_MERGING:
        s, p, o = np.nonzero(valid & (scores >= params.score_threshold))
        scores, boxes = scores[s, p, o], boxes[s, p, o]
        pick, final = _merge_groups(s, ids[p], scores, boxes, params)
    else:  # pragma: no cover - enum is closed
        raise ValueError(f"unknown query mode: {mode}")

    # both modes order the picks by scene row, and row s is scene s
    return ScoredBoxes(s[pick], final, boxes[pick]).split(range(len(scenes.size)))


def detect_each(
    world: World,
    prompts: Sequence[tuple[int, np.ndarray]],
    params: DetectorParams,
    seed: int = 0,
) -> dict[int, ScoredBoxes]:
    """Each prompt run through the detector alone, keyed by prompt id: what
    one prediction-merging ``detect_world`` call per prompt returns, as one
    ``ScoredBoxes`` over the scenes in id order, canonical within a scene.

    Each prompt's cosines come from its own one-row product, as in a
    one-prompt ``detect_world`` call; one product over all prompts can round
    differently.  One grouped soft-NMS call suppresses every (prompt, scene)
    group; the group id ``p * S + s`` makes each prompt's rows one slice.
    """
    ids, unit = unit_prompts(prompts)
    scenes = pack_world(world, seed)
    grids = [candidate_detections(scenes, unit[i : i + 1], params)[2:] for i in range(ids.size)]
    scores = np.concatenate([grid[0] for grid in grids], axis=1)
    boxes = np.concatenate([grid[1] for grid in grids], axis=1)
    cand = (scenes.object_ids >= 0)[:, None, :] & (scores >= params.score_threshold)
    s, p, o = np.nonzero(cand)
    pick, final = _merge_groups(
        p * len(scenes.size) + s, ids[p], scores[s, p, o], boxes[s, p, o], params
    )
    rows = ScoredBoxes(s[pick], final, boxes[s[pick], p[pick], o[pick]])
    ends = np.searchsorted(p[pick], np.arange(ids.size + 1)).tolist()
    return {pid: rows.take(slice(a, b)) for pid, a, b in zip(ids.tolist(), ends, ends[1:])}


def detections_to_coco(dets_by_scene: Mapping[int, ScoredBoxes]) -> list[dict]:
    """COCO results format: one record per detection, scenes in id order,
    category collapsed to 1."""
    dets = ScoredBoxes.concat([dets_by_scene[sid] for sid in sorted(dets_by_scene)])
    rows = zip(dets.scene_ids.tolist(), xyxy_to_xywh(dets.boxes).tolist(), dets.scores.tolist())
    return [{"image_id": sid, "category_id": 1, "bbox": bbox, "score": score} for sid, bbox, score in rows]


_SEPARATION_TRIES = 20


def build_vocabulary(world: World, config: VocabularyConfig) -> list[np.ndarray]:
    """Zero-shot query vectors derived from the world's cluster structure."""
    rng = np.random.default_rng(config.seed)
    sources: list[np.ndarray] = []
    if config.include_centroid:
        sources.append(normalize(np.sum(world.cluster_centers, axis=0)))
    sources.extend(world.cluster_centers)

    base: list[np.ndarray] = []
    tries = _SEPARATION_TRIES if config.noise_angle > 0.0 else 1
    for source in sources:
        for _ in range(tries):
            vec = source
            if config.noise_angle > 0.0:
                (rot,) = sample_child_rotations(vec, 1, config.noise_angle, rng)
                vec = apply_rotation(vec, rot)
            vec = normalize(vec)
            cos_limit = math.cos(config.min_separation)
            if all(float(vec @ other) <= cos_limit for other in base):
                base.append(vec)
                break
    if config.style == "dispersed":
        return base
    out: list[np.ndarray] = []
    for vec in base:
        out.append(vec)
        (rot,) = sample_child_rotations(vec, 1, config.duplicate_angle, rng)
        twin = apply_rotation(vec, rot)
        out.append(normalize(twin))
    return out
