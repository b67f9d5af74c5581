"""Dispersed prompt expansion on the unit hypersphere, with a simulated
grounded detector for end-to-end validation."""

import importlib

# exported name -> the module that defines it; each is imported on first
# access (PEP 562), so importing one submodule, or the CLI, loads only what
# that path uses
_EXPORTS = {
    "BBox": "boxes",
    "iou": "boxes",
    "DetectorParams": "config",
    "ExpansionConfig": "config",
    "VocabularyConfig": "config",
    "WorldConfig": "config",
    "QueryMode": "detector",
    "build_vocabulary": "detector",
    "detect_world": "detector",
    "LossBreakdown": "dispersion",
    "child_child_loss": "dispersion",
    "combine": "dispersion",
    "parent_child_loss": "dispersion",
    "EvalSummary": "evaluation",
    "GroundTruthSet": "evaluation",
    "evaluate": "evaluation",
    "MacReport": "expansion",
    "PromptNode": "expansion",
    "PromptTree": "expansion",
    "RunResult": "expansion",
    "expand": "expansion",
    "run": "expansion",
    "select_parent": "expansion",
    "train_round": "expansion",
    "GivensRotation": "geometry",
    "apply_rotation": "geometry",
    "mac": "geometry",
    "normalize": "geometry",
    "sample_child_rotations": "geometry",
    "PseudoLabelSet": "pseudo_labels",
    "ScoredBoxes": "pseudo_labels",
    "build_pseudo_labels": "pseudo_labels",
    "soft_nms": "pseudo_labels",
    "World": "world",
    "generate_world": "world",
}


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})


__version__ = "0.1.0"

__all__ = sorted({*_EXPORTS, "__version__"} - {"sample_child_rotations"})
