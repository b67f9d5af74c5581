"""Deterministic simulated grounded detector.

Scoring is a calibrated cosine head: raw_logit = a * cos(prompt, object) + b.
Submitting several semantically close prompts in one query degrades the whole
query via a multiplicative overlap penalty (the query-interference failure
mode this package exists to study); submitting prompts one at a time and
merging predictions afterwards avoids it.  Localization is the ground-truth
box displaced along a direction hashed from (seed, scene, object) by an
amount that shrinks as confidence grows.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from enum import Enum
from typing import Mapping, Sequence

import numpy as np

from .boxes import BBox
from .geometry import apply_rotation, normalize, sample_child_rotations
from .pseudo_labels import soft_nms
from .world import Scene, World


class QueryMode(Enum):
    QUERY_MERGING = "query-merging"  # all prompts in one query, penalty applies
    PREDICTION_MERGING = "prediction-merging"  # one pass per prompt, then soft-NMS


@dataclass(frozen=True)
class DetectorParams:
    logit_scale: float = 10.0  # a
    logit_bias: float = -4.5  # b
    overlap_threshold: float = math.radians(57.0)  # prompts closer than this interfere
    penalty_strength: float = 2.0
    box_noise: float = 0.15  # displacement = box_noise * (1 - score) * sqrt(area)
    score_threshold: float = 0.25
    max_detections: int = 100
    nms_sigma: float = 0.5
    nms_floor: float = 0.001

    def __post_init__(self) -> None:
        if self.logit_scale <= 0.0:
            raise ValueError(f"logit_scale must be positive, got {self.logit_scale}")
        if not (0.0 < self.overlap_threshold < math.pi):
            raise ValueError(f"overlap_threshold out of (0, pi): {self.overlap_threshold}")
        if self.penalty_strength < 0.0 or self.box_noise < 0.0:
            raise ValueError("penalty_strength and box_noise must be non-negative")
        if not (0.0 <= self.score_threshold < 1.0):
            raise ValueError(f"score_threshold out of [0, 1): {self.score_threshold}")
        if self.max_detections < 1:
            raise ValueError(f"max_detections must be >= 1, got {self.max_detections}")


@dataclass(frozen=True)
class Detection:
    scene_id: int
    bbox: BBox
    score: float
    prompt_id: int
    object_id: int  # provenance for diagnostics only; matching logic uses boxes


def raw_logit(prompt: np.ndarray, embedding: np.ndarray, params: DetectorParams) -> float:
    """a * cos(prompt, embedding) + b, cosine clamped to [-1, 1]."""
    p = normalize(prompt)
    e = normalize(embedding)
    cos = float(np.clip(p @ e, -1.0, 1.0))
    return params.logit_scale * cos + params.logit_bias


def sigmoid(x: np.ndarray | float) -> np.ndarray | float:
    return 1.0 / (1.0 + np.exp(-np.clip(x, -60.0, 60.0)))


def overlap_penalty(prompts: Sequence[np.ndarray], params: DetectorParams) -> float:
    """exp(-strength * sum over pairs closer than the overlap threshold of
    (cos angle - cos threshold)).  Equals 1 when no pair is that close."""
    if len(prompts) < 2:
        return 1.0
    return _unit_overlap_penalty(np.stack([normalize(p) for p in prompts]), params)


def _unit_overlap_penalty(mat: np.ndarray, params: DetectorParams) -> float:
    """overlap_penalty of prompts already normalized into the rows of ``mat``."""
    cos = np.clip(mat @ mat.T, -1.0, 1.0)
    cos_ov = math.cos(params.overlap_threshold)
    iu = np.triu_indices(mat.shape[0], k=1)
    excess = cos[iu] - cos_ov
    total = float(np.sum(excess[excess > 0.0]))
    return math.exp(-params.penalty_strength * total)


def _noise_direction(seed: int, scene_id: int, object_id: int) -> tuple[float, float]:
    """Fixed unit displacement direction per (seed, scene, object)."""
    digest = hashlib.sha256(f"{seed}:{scene_id}:{object_id}".encode()).digest()
    phi = 2.0 * math.pi * (int.from_bytes(digest[:8], "big") / 2.0 ** 64)
    return math.cos(phi), math.sin(phi)


def noisy_box(
    gt: BBox,
    score: float,
    scene: Scene,
    object_id: int,
    params: DetectorParams,
    seed: int,
) -> BBox:
    """Ground-truth box translated by box_noise * (1 - score) * sqrt(area)
    along the object's hashed direction, clipped to the scene."""
    dx, dy = _noise_direction(seed, scene.id, object_id)
    mag = params.box_noise * (1.0 - score) * math.sqrt(gt.area)
    return gt.translate(mag * dx, mag * dy).clip(scene.width, scene.height)


def _prompt_matrix(prompts: Sequence[tuple[int, np.ndarray]]) -> tuple[list[int], np.ndarray]:
    ids = [int(pid) for pid, _ in prompts]
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate prompt ids")
    mat = np.stack([normalize(vec) for _, vec in prompts])
    return ids, mat


def pair_scores(
    scene: Scene,
    prompts: Sequence[tuple[int, np.ndarray]],
    params: DetectorParams,
    world: World,
) -> tuple[list[int], np.ndarray, np.ndarray]:
    """Penalty-free logits and sigmoid scores for every (prompt, object) pair.

    Returns (prompt_ids, logits, scores), arrays shaped (n_prompts, n_objects)
    with object columns in scene order.  This is the raw material both query
    modes share before merging policy and noise are applied.
    """
    ids, mat = _prompt_matrix(prompts)
    return (ids, *_unit_pair_scores(scene, mat, params, world))


def _unit_pair_scores(
    scene: Scene, mat: np.ndarray, params: DetectorParams, world: World
) -> tuple[np.ndarray, np.ndarray]:
    """pair_scores' (logits, scores) for unit prompts in the rows of ``mat``."""
    emb = np.stack([o.embedding for o in world.scene_objects(scene)])
    cos = np.clip(mat @ emb.T, -1.0, 1.0)
    logits = params.logit_scale * cos + params.logit_bias
    return logits, sigmoid(logits)


def candidate_detections(
    scene: Scene,
    prompts: Sequence[tuple[int, np.ndarray]],
    params: DetectorParams,
    world: World,
    seed: int = 0,
) -> list[Detection]:
    """All (prompt, object) candidates with noisy boxes, no threshold, no cap.

    Training consumes these directly: the score floor that governs reported
    detections would otherwise silence the gradient signal for weak prompts.
    """
    ids, _, scores = pair_scores(scene, prompts, params, world)
    objects = world.scene_objects(scene)
    out = []
    for pi, pid in enumerate(ids):
        for oi, obj in enumerate(objects):
            s = float(scores[pi, oi])
            box = noisy_box(obj.bbox, s, scene, obj.id, params, seed)
            out.append(Detection(scene.id, box, s, pid, obj.id))
    return out


def _canonical(dets: list[Detection]) -> list[Detection]:
    return sorted(
        dets, key=lambda d: (-d.score, d.prompt_id, d.bbox.as_tuple())
    )


def detect_scene(
    scene: Scene,
    prompts: Sequence[tuple[int, np.ndarray]],
    mode: QueryMode,
    params: DetectorParams,
    world: World,
    seed: int = 0,
) -> list[Detection]:
    """Run one scene through the detector under the given merging policy.

    Query merging submits the whole prompt set at once: every score is
    sigmoid(logit) * overlap_penalty(set) and each object is reported once
    under its best prompt (ties to the lowest prompt id).  Prediction merging
    runs each prompt alone (penalty 1), unions the passes and applies
    Gaussian soft-NMS.  Both modes then drop scores below the detection
    threshold and keep the top max_detections.
    """
    ids, mat = _prompt_matrix(prompts)
    penalty = _unit_overlap_penalty(mat, params)
    return _detect_unit_scene(scene, ids, mat, penalty, mode, params, world, seed)


def _detect_unit_scene(
    scene: Scene,
    ids: list[int],
    mat: np.ndarray,
    penalty: float,
    mode: QueryMode,
    params: DetectorParams,
    world: World,
    seed: int,
) -> list[Detection]:
    """detect_scene for unit prompts in the rows of ``mat``, whose
    query-merging ``penalty`` is already computed."""
    _, scores = _unit_pair_scores(scene, mat, params, world)
    objects = world.scene_objects(scene)
    dets: list[Detection] = []

    if mode is QueryMode.QUERY_MERGING:
        merged = scores * penalty
        for oi, obj in enumerate(objects):
            col = merged[:, oi]
            best = min(range(len(ids)), key=lambda pi: (-col[pi], ids[pi]))
            s = float(col[best])
            box = noisy_box(obj.bbox, s, scene, obj.id, params, seed)
            dets.append(Detection(scene.id, box, s, ids[best], obj.id))
    elif mode is QueryMode.PREDICTION_MERGING:
        for pi, pid in enumerate(ids):
            for oi, obj in enumerate(objects):
                s = float(scores[pi, oi])
                if s < params.score_threshold:
                    continue
                box = noisy_box(obj.bbox, s, scene, obj.id, params, seed)
                dets.append(Detection(scene.id, box, s, pid, obj.id))
        dets = soft_nms(_canonical(dets), sigma=params.nms_sigma, score_floor=params.nms_floor)
    else:  # pragma: no cover - enum is closed
        raise ValueError(f"unknown query mode: {mode}")

    kept = [d for d in _canonical(dets) if d.score >= params.score_threshold]
    return kept[: params.max_detections]


def detect_world(
    world: World,
    prompts: Sequence[tuple[int, np.ndarray]],
    mode: QueryMode,
    params: DetectorParams,
    seed: int = 0,
) -> dict[int, list[Detection]]:
    """detect_scene over every scene, keyed by scene id in scene order.

    The prompts are normalized, and their query-merging penalty computed,
    once for the whole world.
    """
    ids, mat = _prompt_matrix(prompts)
    penalty = _unit_overlap_penalty(mat, params)
    return {
        scene.id: _detect_unit_scene(scene, ids, mat, penalty, mode, params, world, seed)
        for scene in world.scenes
    }


def detections_to_coco(dets_by_scene: Mapping[int, Sequence[Detection]]) -> list[dict]:
    """COCO results format: one record per detection, category collapsed to 1."""
    records = []
    for scene_id in sorted(dets_by_scene):
        for d in dets_by_scene[scene_id]:
            x, y, w, h = d.bbox.to_xywh()
            records.append(
                {
                    "image_id": int(scene_id),
                    "category_id": 1,
                    "bbox": [float(x), float(y), float(w), float(h)],
                    "score": float(d.score),
                }
            )
    return records


@dataclass(frozen=True)
class VocabularyConfig:
    """Recipe for the simulator's stand-in for a hand-crafted query vocabulary.

    ``dispersed`` perturbs each cluster center by ``noise_angle`` (plus an
    optional global-centroid query) and enforces ``min_separation`` between
    accepted queries by construction: a candidate too close to an already
    accepted one is re-perturbed a few times and dropped if that fails, so
    the style's name is a guarantee rather than a tendency.  ``overlapping``
    additionally emits a near-duplicate of every query at ``duplicate_angle``,
    deliberately forcing pairs inside the interference zone.
    """

    style: str = "dispersed"  # or "overlapping"
    noise_angle: float = math.radians(10.0)
    include_centroid: bool = True
    duplicate_angle: float = math.radians(3.0)
    min_separation: float = math.radians(60.0)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.style not in ("dispersed", "overlapping"):
            raise ValueError(f"unknown vocabulary style: {self.style}")
        if not (0.0 <= self.min_separation < math.pi):
            raise ValueError(f"min_separation out of [0, pi): {self.min_separation}")


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
    if not base:
        raise ValueError("could not build a separated vocabulary; lower min_separation")
    if config.style == "dispersed":
        return base
    out: list[np.ndarray] = []
    for vec in base:
        out.append(vec)
        (rot,) = sample_child_rotations(vec, 1, config.duplicate_angle, rng)
        twin = apply_rotation(vec, rot)
        out.append(normalize(twin))
    return out
