"""The package's public names: lazy top-level exports, and the config classes
reachable from the modules they used to live in."""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

import dipex
from dipex import config


def test_every_export_is_its_defining_modules_object():
    for name in dipex.__all__:
        value = getattr(dipex, name)
        if name == "__version__":
            continue
        module = sys.modules[value.__module__]
        assert module.__name__.startswith("dipex.")
        assert getattr(module, name) is value, name
    assert set(dipex.__all__) <= set(dir(dipex))
    assert "__version__" in dir(dipex)


def test_unknown_names_still_raise_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        dipex.no_such_name
    experiments = importlib.import_module("dipex.experiments")
    with pytest.raises(AttributeError, match="no_such_name"):
        experiments.no_such_name


def test_every_growth_stage_is_the_packages_export():
    experiments = importlib.import_module("dipex.experiments")
    for name in experiments._STAGES:
        assert getattr(experiments, name) is getattr(dipex, name), name


def test_config_classes_keep_their_old_homes():
    from dipex import detector, expansion, experiments, pseudo_labels, world

    assert world.WorldConfig is config.WorldConfig
    assert detector.DetectorParams is config.DetectorParams
    assert detector.VocabularyConfig is config.VocabularyConfig
    assert expansion.ExpansionConfig is config.ExpansionConfig
    assert experiments.ExperimentConfig is config.ExperimentConfig
    assert experiments.ConfigError is config.ConfigError
    assert expansion.EmptyPseudoLabels is pseudo_labels.EmptyPseudoLabels


def test_remaining_default_copies_equal_the_config_defaults():
    """The parameters that still copy a config default, because the
    benchmark's scripts or acceptance check 03 omit them, copy it exactly;
    so do the benchmark's own soft-NMS settings for ``eval --merge``."""
    from dipex.detector import detect_world
    from dipex.pseudo_labels import soft_nms

    spec = importlib.util.spec_from_file_location(
        "perfbench_checks", Path(__file__).resolve().parents[1] / "perfbench" / "checks.py"
    )
    checks = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(checks)
    params = config.DetectorParams()
    nms = inspect.signature(soft_nms).parameters
    assert (nms["sigma"].default, nms["score_floor"].default) == (params.nms_sigma, params.nms_floor)
    assert (checks.NMS_SIGMA, checks.NMS_FLOOR) == (params.nms_sigma, params.nms_floor)
    assert inspect.signature(detect_world).parameters["seed"].default == config.ExpansionConfig().seed
