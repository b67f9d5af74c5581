"""Scalar reference for the array detector, soft-NMS, label builder and
responsibility matcher.

These are the one-pair-at-a-time versions that `dipex.detector`'s candidate
grid, the array `soft_nms`, the array `build_pseudo_labels` and
`expansion.assign_responsibility` replaced: a `BBox` and a `Detection` per
(prompt, object) pair, Python loops for both merging policies, a Python
soft-NMS, a scene-by-scene label builder over objects and an object-based
label matcher, with a `PseudoLabel` per label.  They are kept here only to
cross-check the fast paths, which must reproduce them exactly.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from dipex.boxes import BBox
from dipex.detector import (
    DetectorParams,
    QueryMode,
    _noise_direction,
    overlap_penalty,
    sigmoid,
)
from dipex.geometry import normalize

from reference_geometry import iou
from reference_world import scene_objects, scenes_of


@dataclass(frozen=True)
class Detection:
    """One detection as an object; the package reports detections as arrays."""

    scene_id: int
    bbox: BBox
    score: float
    prompt_id: int
    object_id: int  # provenance for diagnostics only; matching logic uses boxes


@dataclass(frozen=True)
class PseudoLabel:
    """One pseudo-label as an object; the package keeps labels as arrays."""

    scene_id: int
    bbox: BBox
    score: float
    source: str


def raw_logit(prompt: np.ndarray, embedding: np.ndarray, params: DetectorParams) -> float:
    """a * cos(prompt, embedding) + b, cosine clamped to [-1, 1]."""
    cos = float(np.clip(normalize(prompt) @ normalize(embedding), -1.0, 1.0))
    return params.logit_scale * cos + params.logit_bias


def translate(box: BBox, dx: float, dy: float) -> BBox:
    return BBox(box.x_min + dx, box.y_min + dy, box.x_max + dx, box.y_max + dy)


def clip(box: BBox, width: float, height: float) -> BBox:
    """Clip to an image of the given size; may produce a degenerate box."""
    x0 = min(max(box.x_min, 0.0), width)
    y0 = min(max(box.y_min, 0.0), height)
    x1 = min(max(box.x_max, 0.0), width)
    y1 = min(max(box.y_max, 0.0), height)
    return BBox(x0, y0, max(x0, x1), max(y0, y1))


def noisy_box(gt: BBox, score: float, scene, object_id: int, params: DetectorParams, seed: int) -> BBox:
    """Ground-truth box translated by box_noise * (1 - score) * sqrt(area)
    along the object's hashed direction, clipped to the scene."""
    dx, dy = _noise_direction(seed, scene.id, object_id)
    mag = params.box_noise * (1.0 - score) * math.sqrt(gt.area)
    return clip(translate(gt, mag * dx, mag * dy), scene.width, scene.height)


def _prompt_matrix(prompts) -> tuple[list[int], np.ndarray]:
    ids = [int(pid) for pid, _ in prompts]
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate prompt ids")
    return ids, np.stack([normalize(vec) for _, vec in prompts])


def pair_scores(scene, prompts, params: DetectorParams, world):
    """(prompt_ids, logits, scores) of every (prompt, object) pair of one
    scene, shaped (n_prompts, n_objects), without penalty or noise."""
    ids, mat = _prompt_matrix(prompts)
    emb = np.stack([o.embedding for o in scene_objects(world, scene)])
    logits = params.logit_scale * np.clip(mat @ emb.T, -1.0, 1.0) + params.logit_bias
    return ids, logits, sigmoid(logits)


def candidate_detections(scene, prompts, params: DetectorParams, world, seed: int = 0) -> list[Detection]:
    """All (prompt, object) candidates of one scene, prompt by prompt."""
    ids, _, scores = pair_scores(scene, prompts, params, world)
    out = []
    for pi, pid in enumerate(ids):
        for oi, obj in enumerate(scene_objects(world, scene)):
            s = float(scores[pi, oi])
            box = noisy_box(obj.bbox, s, scene, obj.id, params, seed)
            out.append(Detection(scene.id, box, s, pid, obj.id))
    return out


def soft_nms(dets: Sequence, sigma: float = 0.5, score_floor: float = 0.001) -> list:
    """Gaussian soft-NMS one box at a time: select the highest running score
    (ties to the earliest), rescale the rest by exp(-IoU^2 / sigma), drop
    those under the floor; rescored copies in selection order."""
    remaining = [(float(d.score), idx, d) for idx, d in enumerate(dets)]
    kept = []
    while remaining:
        best_pos = min(range(len(remaining)), key=lambda i: (-remaining[i][0], remaining[i][1]))
        score, _, det = remaining.pop(best_pos)
        kept.append(dataclasses.replace(det, score=score))
        rescored = []
        for s, idx, d in remaining:
            s2 = s * math.exp(-iou(det.bbox, d.bbox) ** 2 / sigma)
            if s2 >= score_floor:
                rescored.append((s2, idx, d))
        remaining = rescored
    return kept


def build_pseudo_labels(
    sources: Mapping[str, Sequence],
    threshold: float = 0.2,
    sigma: float = 0.5,
    score_floor: float = 0.001,
) -> list[PseudoLabel]:
    """Scene-by-scene label builder over objects with scene_id/bbox/score:
    candidates under the threshold dropped, the rest unioned in sorted-name
    order of their sources and sorted by (scene, -score, box, source), exact
    (scene, score, box) duplicates dropped after the first, the
    one-box-at-a-time soft-NMS run per scene with floor
    max(score_floor, threshold), and the survivors listed in sorted order
    with their original scores."""
    rows = sorted(
        (int(d.scene_id), -float(d.score), d.bbox.as_tuple(), name)
        for name in sorted(sources)
        for d in sources[name]
        if float(d.score) >= threshold
    )
    rows = [row for i, row in enumerate(rows) if i == 0 or row[:3] != rows[i - 1][:3]]
    labels = []
    for sid in sorted({row[0] for row in rows}):
        # each candidate carries its row number as prompt_id through soft-NMS
        cands = [Detection(sid, BBox(*row[2]), -row[1], k, -1) for k, row in enumerate(rows) if row[0] == sid]
        kept = sorted(d.prompt_id for d in soft_nms(cands, sigma, max(score_floor, threshold)))
        labels += [PseudoLabel(sid, BBox(*rows[k][2]), -rows[k][1], rows[k][3]) for k in kept]
    return labels


def _canonical(dets: list[Detection]) -> list[Detection]:
    return sorted(dets, key=lambda d: (-d.score, d.prompt_id, d.bbox.as_tuple()))


def detect_scene(scene, prompts, mode: QueryMode, params: DetectorParams, world, seed: int = 0) -> list[Detection]:
    """One scene through the detector, pair by pair, under either policy."""
    ids, _, scores = pair_scores(scene, prompts, params, world)
    objects = scene_objects(world, scene)
    dets: list[Detection] = []
    if mode is QueryMode.QUERY_MERGING:
        merged = scores * overlap_penalty([vec for _, vec in prompts], params)
        for oi, obj in enumerate(objects):
            col = merged[:, oi]
            best = min(range(len(ids)), key=lambda pi: (-col[pi], ids[pi]))
            s = float(col[best])
            box = noisy_box(obj.bbox, s, scene, obj.id, params, seed)
            dets.append(Detection(scene.id, box, s, ids[best], obj.id))
    else:
        for pi, pid in enumerate(ids):
            for oi, obj in enumerate(objects):
                s = float(scores[pi, oi])
                if s < params.score_threshold:
                    continue
                box = noisy_box(obj.bbox, s, scene, obj.id, params, seed)
                dets.append(Detection(scene.id, box, s, pid, obj.id))
        dets = soft_nms(_canonical(dets), sigma=params.nms_sigma, score_floor=params.nms_floor)
    kept = [d for d in _canonical(dets) if d.score >= params.score_threshold]
    return kept[: params.max_detections]


def detect_world(world, prompts, mode: QueryMode, params: DetectorParams, seed: int = 0) -> dict[int, list[Detection]]:
    return {scene.id: detect_scene(scene, prompts, mode, params, world, seed) for scene in scenes_of(world)}


@dataclass(frozen=True)
class ResponsibilityRecord:
    """One pseudo-label matched to the prompt set: its responsible prompt,
    the focal target (0/1) of every matched prompt, and each matched
    prompt's best detection."""

    label: PseudoLabel
    responsible_prompt_id: int
    targets: dict[int, int]
    matched: dict[int, object]


def assign_responsibility(dets: Sequence, labels, iou_min: float = 0.5):
    """Per label: every detection with IoU >= iou_min matches, per prompt only
    its best-scoring match counts, and the best such prompt (ties to the
    lowest id) is responsible.  ``labels`` are objects with scene_id and
    bbox.  Returns (records, missed labels)."""
    if not (0.0 < iou_min <= 1.0):
        raise ValueError(f"iou_min out of (0, 1]: {iou_min}")
    dets_by_scene: dict[int, list] = {}
    for d in dets:
        dets_by_scene.setdefault(int(d.scene_id), []).append(d)
    assignments, misses = [], []
    for label in labels:
        best_by_prompt: dict[int, object] = {}
        for det in dets_by_scene.get(label.scene_id, ()):
            if iou(det.bbox, label.bbox) < iou_min:
                continue
            pid = int(det.prompt_id)
            cur = best_by_prompt.get(pid)
            if cur is None or det.score > cur.score:
                best_by_prompt[pid] = det
        if not best_by_prompt:
            misses.append(label)
            continue
        responsible = min(best_by_prompt, key=lambda pid: (-best_by_prompt[pid].score, pid))
        assignments.append(
            ResponsibilityRecord(
                label=label,
                responsible_prompt_id=responsible,
                targets={pid: int(pid == responsible) for pid in sorted(best_by_prompt)},
                matched={pid: best_by_prompt[pid] for pid in sorted(best_by_prompt)},
            )
        )
    return assignments, misses


def activation_counts(tree, labels, world, params: DetectorParams, iou_min: float = 0.5, seed: int = 0):
    """(counts by prompt id, total) of responsibility over every candidate."""
    items = tree.prompt_items()
    dets = []
    for scene in scenes_of(world):
        dets.extend(candidate_detections(scene, items, params, world, seed))
    assignments, _ = assign_responsibility(dets, labels, iou_min)
    counts = {nid: 0 for nid, _ in items}
    for record in assignments:
        counts[record.responsible_prompt_id] += 1
    return counts, len(assignments)


def label_sources(prompts, world, params: DetectorParams, seed: int = 0) -> dict[int, list[Detection]]:
    """Each prompt's own prediction-merging detections over the world."""
    return {
        int(pid): [d for dets in detect_world(world, [(pid, vec)], QueryMode.PREDICTION_MERGING, params, seed).values() for d in dets]
        for pid, vec in prompts
    }
