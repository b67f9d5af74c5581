"""Every setting of an experiment, and the loader that builds them.

One frozen dataclass per config section -- ``WorldConfig``,
``DetectorParams``, ``ExpansionConfig`` and ``VocabularyConfig`` -- plus
``ExperimentConfig``, which bundles them with the detection caps, and the
YAML/JSON loader that builds it.  The classes live here rather than beside
the code they configure so that reading a configuration, or scoring files
with ``dipex eval``, imports none of the growth modules.  ``world``,
``detector`` and ``expansion`` re-export their own section's class.

Each single-field rule is declared on its field, with ``_rule`` or
``_angle``, and ``_check_rules`` raises every such fault.  Angles are radians
in the dataclasses and ``<field>_degrees`` in config files and manifests.
"""

from __future__ import annotations

import dataclasses
import math
import operator
from dataclasses import dataclass, replace
from pathlib import Path

DEFAULT_MAX_DETS = (1, 10, 100)

# The world's sqrt-area sampling ranges per size class; L is additionally
# capped so a box always fits its scene cell at the worst-case 2:1 aspect
# ratio.
_SIDE_RANGES = {"S": (8.0, 32.0), "M": (32.0, 96.0), "L": (96.0, 256.0)}
_ASPECT_LO, _ASPECT_HI = 0.5, 2.0
_EDGE_EPS = 1e-6


class ConfigError(ValueError):
    """Raised when an experiment configuration cannot be built."""


def _rule(default, rule: str):
    """A field whose value must pass ``rule``, written as its fault message
    prints it: a bound such as ``> 0`` or ``>= 1``, or a range such as ``[0, 1)``."""
    return dataclasses.field(default=default, metadata={"rule": rule})


def _angle(degrees: float, rule: str):
    """An angle field: radians in the dataclass, ``<field>_degrees`` in
    config files and manifests, with ``rule``'s bounds in degrees."""
    return dataclasses.field(default=math.radians(degrees), metadata={"rule": rule, "angle": True})


def _angles(section) -> tuple[str, ...]:
    """The angle fields of a section or its dataclass."""
    return tuple(f.name for f in dataclasses.fields(section) if f.metadata.get("angle"))


# a rule's token -> how the bound on that side compares with the value; a closed side admits equality
_ORDER = {**dict.fromkeys(("[", "]", ">="), operator.le), **dict.fromkeys(("(", ")", ">"), operator.lt)}
_WORDS = {"> 0": "must be positive", ">= 0": "must be non-negative"}


def _check_rules(section) -> None:
    """Raise the first value of ``section``, in field order, that breaks its
    field's rule, naming its config key and the value as that key gives it."""
    for f in dataclasses.fields(section):
        if "rule" not in f.metadata:
            continue
        rule, value = f.metadata["rule"], getattr(section, f.name)
        key, shown, scale = f.name, value, float
        if f.metadata.get("angle"):  # bounds and shown value in degrees, compared in radians
            key, shown, scale = f"{f.name}_degrees", round(math.degrees(value), 9), math.radians
        if rule[0] in "[(":  # a range: "[lo, hi)"
            lo, hi = (scale(float(b)) for b in rule[1:-1].split(", "))
            ok = _ORDER[rule[0]](lo, value) and _ORDER[rule[-1]](value, hi)
            fault = f"out of {rule}: {shown}"
        else:  # a lower bound: ">= lo"
            op, lo = rule.split()
            ok = _ORDER[op](scale(float(lo)), value)
            fault = f"{_WORDS.get(rule, f'must be {rule}')}, got {shown}"
        if not ok:
            raise ValueError(f"{key} {fault}")


@dataclass(frozen=True)
class WorldConfig:
    dim: int = _rule(64, ">= 2")
    num_clusters: int = _rule(8, ">= 1")
    objects_per_cluster: int = _rule(40, ">= 1")
    concentration: float = _rule(20.0, "> 0")  # higher = tighter clusters
    num_scenes: int = _rule(80, ">= 1")
    objects_per_scene: int = _rule(4, ">= 1")
    width: int = _rule(640, ">= 1")
    height: int = _rule(480, ">= 1")
    size_mix: tuple[float, float, float] = (0.35, 0.40, 0.25)  # S, M, L fractions
    seed: int = _rule(0, ">= 0")  # numpy's generators take no negative seed

    def __post_init__(self) -> None:
        object.__setattr__(self, "size_mix", tuple(map(float, self.size_mix)))  # YAML may give integers
        _check_rules(self)
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
        self._validate_fit()

    def _validate_fit(self) -> None:
        for (cls, (low, high)), frac in zip(self.side_ranges().items(), self.size_mix):
            if frac > 0.0 and high <= low:
                cell_w, cell_h = self.cell_size()
                raise ValueError(
                    f"size mix impossible: class {cls} boxes (side >= {_SIDE_RANGES[cls][0]}) do not "
                    f"fit scene cells of {cell_w:.0f}x{cell_h:.0f} "
                    f"({self.width}x{self.height} split for {self.objects_per_scene} objects)"
                )

    def side_ranges(self) -> dict[str, tuple[float, float]]:
        """Each size class's (low, high) range of box sides: its sqrt-area
        range, capped so that a box of the widest aspect ratio fits a scene
        cell, and kept ``_EDGE_EPS`` inside both ends."""
        cell_w, cell_h = self.cell_size()
        limit = min(cell_w, cell_h) / math.sqrt(_ASPECT_HI)
        return {cls: (lo + _EDGE_EPS, min(hi, limit) - _EDGE_EPS) for cls, (lo, hi) in _SIDE_RANGES.items()}

    def grid_shape(self) -> tuple[int, int]:
        cols = math.ceil(math.sqrt(self.objects_per_scene))
        rows = math.ceil(self.objects_per_scene / cols)
        return rows, cols

    def cell_size(self) -> tuple[float, float]:
        rows, cols = self.grid_shape()
        return self.width / cols, self.height / rows


@dataclass(frozen=True)
class DetectorParams:
    logit_scale: float = _rule(10.0, "> 0")  # a
    logit_bias: float = -4.5  # b
    overlap_threshold: float = _angle(57.0, "(0, 180)")  # prompts closer than this interfere
    penalty_strength: float = _rule(2.0, ">= 0")
    box_noise: float = _rule(0.15, ">= 0")  # displacement = box_noise * (1 - score) * sqrt(area)
    score_threshold: float = _rule(0.25, "[0, 1)")
    max_detections: int = _rule(100, ">= 1")
    nms_sigma: float = _rule(0.5, "> 0")
    nms_floor: float = _rule(0.001, "[0, 1)")

    def __post_init__(self) -> None:
        _check_rules(self)


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
    noise_angle: float = _angle(10.0, "[0, 180]")
    include_centroid: bool = True
    duplicate_angle: float = _angle(3.0, "[0, 180]")
    min_separation: float = _angle(60.0, "[0, 180)")
    seed: int = _rule(0, ">= 0")

    def __post_init__(self) -> None:
        if self.style not in ("dispersed", "overlapping"):
            raise ValueError(f"unknown vocabulary style: {self.style}")
        _check_rules(self)


@dataclass(frozen=True)
class ExpansionConfig:
    """Knobs for one growth run.  Angles are radians."""

    num_children: int = _rule(9, ">= 0")
    num_expansions: int = _rule(3, ">= 0")
    max_angle: float = _angle(15.0, "(0, 90]")
    tau_parent: float = _rule(0.1, "> 0")
    tau_child: float = _rule(0.1, "> 0")
    gamma: float = _rule(0.1, ">= 0")
    gamma_bbox: float = _rule(5.0, ">= 0")
    gamma_giou: float = _rule(2.0, ">= 0")
    gamma_cls: float = _rule(1.0, ">= 0")
    mac_threshold: float = _angle(75.0, "(0, 180]")
    mac_tolerance: float = _angle(0.5, ">= 0")
    learning_rate: float = _rule(0.05, "> 0")
    epochs_per_round: int = _rule(20, ">= 1")
    batch_size: int = _rule(8, ">= 1")
    label_threshold: float = _rule(0.2, "[0, 1)")
    label_iou_min: float = _rule(0.5, "(0, 1]")
    early_stop: bool = True
    seed: int = _rule(0, ">= 0")

    def __post_init__(self) -> None:
        _check_rules(self)
        if self.num_expansions > 0 and self.num_children < 2:
            raise ValueError("need at least 2 children per expansion for sibling repulsion")


@dataclass(frozen=True)
class ExperimentConfig:
    world: WorldConfig = WorldConfig()
    detector: DetectorParams = DetectorParams()
    expansion: ExpansionConfig = ExpansionConfig()
    vocabulary: VocabularyConfig = VocabularyConfig()
    max_dets: tuple[int, ...] = DEFAULT_MAX_DETS

    def as_dict(self) -> dict:
        doc = {name: _in_degrees(getattr(self, name)) for name in _SECTIONS}
        return {**doc, "max_dets": list(self.max_dets)}


# config section -> its dataclass, as ExperimentConfig declares them
_SECTIONS = {f.name: type(f.default) for f in dataclasses.fields(ExperimentConfig) if f.name != "max_dets"}


def _in_degrees(section) -> dict:
    """``section``'s settings by config key: each angle as ``<field>_degrees``."""
    data = dataclasses.asdict(section)
    for key in _angles(section):
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
        cls = _SECTIONS[name]
        angles = _angles(cls)
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
