"""Dispersed prompt expansion on the unit hypersphere, with a simulated
grounded detector for end-to-end validation."""

from .boxes import BBox, iou
from .detector import (
    DetectorParams,
    QueryMode,
    VocabularyConfig,
    build_vocabulary,
    detect_world,
)
from .dispersion import LossBreakdown, child_child_loss, combine, parent_child_loss
from .evaluation import EvalSummary, GroundTruthSet, evaluate
from .expansion import (
    ExpansionConfig,
    MacReport,
    PromptNode,
    PromptTree,
    RunResult,
    expand,
    run,
    select_parent,
    train_round,
)
from .geometry import GivensRotation, apply_rotation, mac, normalize, sample_child_rotations
from .pseudo_labels import PseudoLabelSet, ScoredBoxes, build_pseudo_labels, soft_nms
from .world import World, WorldConfig, generate_world

__version__ = "0.1.0"

__all__ = [
    "BBox",
    "DetectorParams",
    "EvalSummary",
    "ExpansionConfig",
    "GivensRotation",
    "GroundTruthSet",
    "LossBreakdown",
    "MacReport",
    "PromptNode",
    "PromptTree",
    "PseudoLabelSet",
    "QueryMode",
    "RunResult",
    "ScoredBoxes",
    "VocabularyConfig",
    "World",
    "WorldConfig",
    "__version__",
    "apply_rotation",
    "build_pseudo_labels",
    "build_vocabulary",
    "child_child_loss",
    "combine",
    "detect_world",
    "evaluate",
    "expand",
    "generate_world",
    "iou",
    "mac",
    "normalize",
    "parent_child_loss",
    "run",
    "select_parent",
    "soft_nms",
    "train_round",
]
