"""Every setting of an experiment, and the loader that builds them.

One frozen dataclass per config section -- ``WorldConfig``,
``DetectorParams``, ``ExpansionConfig`` and ``VocabularyConfig`` -- plus
``ExperimentConfig``, which bundles them with the detection caps, and the
YAML/JSON loader that builds it.  The classes live here rather than beside
the code they configure so that reading a configuration, or scoring files
with ``dipex eval``, imports none of the growth modules.  ``world``,
``detector`` and ``expansion`` re-export their own section's class.

Angles are radians in the dataclasses and ``<field>_degrees`` in config
files and manifests.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

DEFAULT_MAX_DETS = (1, 10, 100)

# The world's sqrt-area sampling ranges per size class; L is additionally
# capped so a box always fits its scene cell at the worst-case 2:1 aspect
# ratio.
_SIDE_RANGES = {"S": (8.0, 32.0), "M": (32.0, 96.0), "L": (96.0, 256.0)}
_ASPECT_LO, _ASPECT_HI = 0.5, 2.0
_EDGE_EPS = 1e-6


class ConfigError(ValueError):
    """Raised when an experiment configuration cannot be built."""


def _deg(radians: float) -> float:
    """An angle in degrees, as config files write it, for fault messages."""
    return round(math.degrees(radians), 9)


@dataclass(frozen=True)
class WorldConfig:
    dim: int = 64
    num_clusters: int = 8
    objects_per_cluster: int = 40
    concentration: float = 20.0  # higher = tighter clusters
    num_scenes: int = 80
    objects_per_scene: int = 4
    width: int = 640
    height: int = 480
    size_mix: tuple[float, float, float] = (0.35, 0.40, 0.25)  # S, M, L fractions
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "size_mix", tuple(map(float, self.size_mix)))  # YAML may give integers
        if self.dim < 2:
            raise ValueError(f"dim must be >= 2, got {self.dim}")
        if self.num_clusters < 1 or self.objects_per_cluster < 1:
            raise ValueError("need at least one cluster and one object per cluster")
        if self.concentration <= 0.0:
            raise ValueError(f"concentration must be positive, got {self.concentration}")
        if self.num_scenes < 1 or self.objects_per_scene < 1:
            raise ValueError("need at least one scene and one object per scene")
        total = self.num_clusters * self.objects_per_cluster
        placed = self.num_scenes * self.objects_per_scene
        if total != placed:
            raise ValueError(
                f"{total} objects cannot fill {self.num_scenes} scenes of "
                f"{self.objects_per_scene} (need {placed})"
            )
        if len(self.size_mix) != 3 or any(m < 0.0 for m in self.size_mix):
            raise ValueError(f"size_mix needs three non-negative fractions: {self.size_mix}")
        if not math.isclose(sum(self.size_mix), 1.0, abs_tol=1e-9):
            raise ValueError(f"size_mix must sum to 1: {self.size_mix}")
        if self.seed < 0:  # numpy's generators take no negative seed
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        self._validate_fit()

    def _validate_fit(self) -> None:
        cell_w, cell_h = self.cell_size()
        limit = min(cell_w, cell_h) / math.sqrt(_ASPECT_HI)
        for cls, frac in zip(("S", "M", "L"), self.size_mix):
            if frac <= 0.0:
                continue
            lo, _ = _SIDE_RANGES[cls]
            if limit <= lo + 2 * _EDGE_EPS:
                raise ValueError(
                    f"size mix impossible: class {cls} boxes (side >= {lo}) do not "
                    f"fit scene cells of {cell_w:.0f}x{cell_h:.0f} "
                    f"({self.width}x{self.height} split for {self.objects_per_scene} objects)"
                )

    def grid_shape(self) -> tuple[int, int]:
        cols = math.ceil(math.sqrt(self.objects_per_scene))
        rows = math.ceil(self.objects_per_scene / cols)
        return rows, cols

    def cell_size(self) -> tuple[float, float]:
        rows, cols = self.grid_shape()
        return self.width / cols, self.height / rows


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
            raise ValueError(f"overlap_threshold_degrees out of (0, 180): {_deg(self.overlap_threshold)}")
        if self.penalty_strength < 0.0 or self.box_noise < 0.0:
            raise ValueError("penalty_strength and box_noise must be non-negative")
        if not (0.0 <= self.score_threshold < 1.0):
            raise ValueError(f"score_threshold out of [0, 1): {self.score_threshold}")
        if self.max_detections < 1:
            raise ValueError(f"max_detections must be >= 1, got {self.max_detections}")
        if self.nms_sigma <= 0.0:
            raise ValueError(f"nms_sigma must be positive, got {self.nms_sigma}")


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
        for name in ("noise_angle", "duplicate_angle"):
            if not (0.0 <= getattr(self, name) <= math.pi):
                raise ValueError(f"{name}_degrees out of [0, 180]: {_deg(getattr(self, name))}")
        if not (0.0 <= self.min_separation < math.pi):
            raise ValueError(f"min_separation_degrees out of [0, 180): {_deg(self.min_separation)}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")


@dataclass(frozen=True)
class ExpansionConfig:
    """Knobs for one growth run.  Angles are radians."""

    num_children: int = 9
    num_expansions: int = 3
    max_angle: float = math.radians(15.0)
    tau_parent: float = 0.1
    tau_child: float = 0.1
    gamma: float = 0.1
    gamma_bbox: float = 5.0
    gamma_giou: float = 2.0
    gamma_cls: float = 1.0
    mac_threshold: float = math.radians(75.0)
    mac_tolerance: float = math.radians(0.5)
    learning_rate: float = 0.05
    epochs_per_round: int = 20
    batch_size: int = 8
    label_threshold: float = 0.2
    label_iou_min: float = 0.5
    early_stop: bool = True
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_expansions < 0:
            raise ValueError(f"num_expansions must be >= 0, got {self.num_expansions}")
        if self.num_expansions > 0 and self.num_children < 2:
            raise ValueError("need at least 2 children per expansion for sibling repulsion")
        if not (0.0 < self.max_angle <= math.pi / 2):
            raise ValueError(f"max_angle_degrees out of (0, 90]: {_deg(self.max_angle)}")
        if self.tau_parent <= 0.0 or self.tau_child <= 0.0:
            raise ValueError("temperatures must be positive")
        if min(self.gamma, self.gamma_bbox, self.gamma_giou, self.gamma_cls) < 0.0:
            raise ValueError("loss weights must be non-negative")
        if not (0.0 < self.mac_threshold <= math.pi):
            raise ValueError(f"mac_threshold_degrees out of (0, 180]: {_deg(self.mac_threshold)}")
        if self.mac_tolerance < 0.0:
            raise ValueError(f"mac_tolerance_degrees must be non-negative, got {_deg(self.mac_tolerance)}")
        if self.learning_rate <= 0.0:
            raise ValueError("learning_rate must be positive")
        if self.epochs_per_round < 1 or self.batch_size < 1:
            raise ValueError("epochs_per_round and batch_size must be >= 1")
        if not (0.0 <= self.label_threshold < 1.0):
            raise ValueError(f"label_threshold out of [0, 1): {self.label_threshold}")
        if not (0.0 < self.label_iou_min <= 1.0):
            raise ValueError(f"label_iou_min out of (0, 1]: {self.label_iou_min}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")


@dataclass(frozen=True)
class ExperimentConfig:
    world: WorldConfig = WorldConfig()
    detector: DetectorParams = DetectorParams()
    expansion: ExpansionConfig = ExpansionConfig()
    vocabulary: VocabularyConfig = VocabularyConfig()
    max_dets: tuple[int, ...] = DEFAULT_MAX_DETS

    def as_dict(self) -> dict:
        doc = {
            name: _degrees_out(dataclasses.asdict(getattr(self, name)), angles)
            for name, (_, angles) in _SECTIONS.items()
        }
        return {**doc, "max_dets": list(self.max_dets)}


# config section -> (its dataclass, its angle fields: radians in the
# dataclass, "<field>_degrees" in config files and manifests)
_SECTIONS = {
    "world": (WorldConfig, ()),
    "detector": (DetectorParams, ("overlap_threshold",)),
    "expansion": (ExpansionConfig, ("max_angle", "mac_threshold", "mac_tolerance")),
    "vocabulary": (VocabularyConfig, ("noise_angle", "duplicate_angle", "min_separation")),
}


def _degrees_out(data: dict, angle_keys: Sequence[str]) -> dict:
    for key in angle_keys:
        data[f"{key}_degrees"] = math.degrees(data.pop(key))
    return data


def is_whole(value) -> bool:
    """A whole number: an int, or a float with no fraction, that fits in
    int64; not a bool."""
    whole = isinstance(value, int) or (isinstance(value, float) and value.is_integer())
    return whole and not isinstance(value, bool) and -(2**63) <= value < 2**63


def _is_finite(value) -> bool:
    """An int or float that is a finite float: not a bool, NaN or an infinity."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int past float range
        return False


# a field's declared type -> (the test its config value must pass, what that value is)
_KINDS = {
    "int": (is_whole, "an integer"),
    "float": (_is_finite, "a finite number"),
    "bool": (lambda v: isinstance(v, bool), "true or false"),
    "str": (lambda v: isinstance(v, str), "a string"),
    "tuple[float, float, float]": (
        lambda v: isinstance(v, (list, tuple)) and len(v) == 3 and all(map(_is_finite, v)),
        "three finite numbers",
    ),
}


def with_settings(config: ExperimentConfig, doc: dict) -> ExperimentConfig:
    """``config`` with the settings of ``doc``, {section: {key: value}} in
    config-file terms.  Each value must pass the check of its field's
    declared type, whether it comes from a config file or a flag."""
    sections = {}
    for name, data in doc.items():
        if not isinstance(data, dict):
            raise ConfigError(f"section '{name}' must be a mapping")
        cls, angles = _SECTIONS[name]
        # config key -> (dataclass field, declared type); angles are read in degrees
        keys = {f.name: (f.name, f.type) for f in dataclasses.fields(cls) if f.name not in angles}
        keys.update({f"{field}_degrees": (field, "float") for field in angles})
        kwargs = {}
        for key, value in data.items():
            if key not in keys:
                raise ConfigError(f"unknown key '{key}' in section '{name}'")
            field, kind = keys[key]
            fits, expected = _KINDS[kind]
            if not fits(value):
                raise ConfigError(f"section '{name}': '{key}' must be {expected}, got {value!r}")
            if field in angles:
                value = math.radians(value)
            elif kind == "int":
                value = int(value)  # a whole float, such as 640.0
            kwargs[field] = value
        try:
            sections[name] = replace(getattr(config, name), **kwargs)
        except ValueError as exc:
            raise ConfigError(f"section '{name}': {exc}") from exc
    return replace(config, **sections)


def experiment_config_from_dict(doc: dict) -> ExperimentConfig:
    """Build a full configuration from a parsed YAML/JSON document."""
    if not isinstance(doc, dict):
        raise ConfigError("configuration document must be a mapping")
    unknown = set(doc) - {*_SECTIONS, "max_dets"}
    if unknown:
        raise ConfigError(f"unknown top-level keys: {sorted(unknown)}")
    config = with_settings(ExperimentConfig(), {name: doc[name] for name in _SECTIONS if name in doc})
    return replace(config, max_dets=checked_max_dets(doc.get("max_dets", list(DEFAULT_MAX_DETS))))


def checked_max_dets(max_dets) -> tuple[int, ...]:
    """``max_dets`` sorted, without repeats, if it is a non-empty list of integers >= 1."""
    caps_ok = isinstance(max_dets, (list, tuple)) and all(is_whole(v) and v >= 1 for v in max_dets)
    if not (caps_ok and max_dets):
        raise ConfigError(f"max_dets must be a non-empty list of integers >= 1, got {max_dets!r}")
    return tuple(sorted({int(v) for v in max_dets}))


def load_experiment_config(path: str | Path | None) -> ExperimentConfig:
    if path is None:
        return ExperimentConfig()
    import yaml  # here, not at the top: only --config needs it, and it is slow to import

    try:
        with open(path) as fh:
            doc = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError(f"{path}: {exc.strerror}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: invalid YAML ({exc})") from exc
    return experiment_config_from_dict(doc if doc is not None else {})


def with_seed(config: ExperimentConfig, seed: int) -> ExperimentConfig:
    """Reseed every stochastic component in lockstep; the seed is checked as a config file's."""
    return with_settings(config, {name: {"seed": seed} for name in ("world", "expansion", "vocabulary")})
