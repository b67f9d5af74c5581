import hashlib
import json
import math
from dataclasses import replace
from pathlib import Path
from unittest.mock import ANY

import numpy as np
import pytest

from dipex.cli import main
from dipex.evaluation import load_coco_ground_truth
from dipex.expansion import ExpansionConfig
from dipex.experiments import (
    ConfigError,
    ExperimentConfig,
    _write_run_artifacts,
    experiment_config_from_dict,
    load_experiment_config,
    run_dipex,
    run_eval_only,
    run_pilot_merging,
    run_sweep,
    with_seed,
)
from dipex.world import WorldConfig, generate_world

from conftest import TINY_WORLD

FAST_EXPANSION = ExpansionConfig(
    num_children=2,
    num_expansions=1,
    epochs_per_round=2,
    seed=5,
)

FAST_CONFIG = ExperimentConfig(world=TINY_WORLD, expansion=FAST_EXPANSION)


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def read_csv_rows(path):
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def test_defaults_from_empty_document():
    config = experiment_config_from_dict({})
    assert config == ExperimentConfig()
    assert load_experiment_config(None) == ExperimentConfig()


def test_degree_keys_become_radians():
    config = experiment_config_from_dict(
        {
            "detector": {"overlap_threshold_degrees": 45.0},
            "expansion": {"max_angle_degrees": 10.0, "num_children": 4},
            "vocabulary": {"noise_angle_degrees": 5.0, "min_separation_degrees": 50.0},
        }
    )
    assert config.detector.overlap_threshold == pytest.approx(math.radians(45.0))
    assert config.expansion.max_angle == pytest.approx(math.radians(10.0))
    assert config.expansion.num_children == 4
    assert config.vocabulary.noise_angle == pytest.approx(math.radians(5.0))
    assert config.vocabulary.min_separation == pytest.approx(math.radians(50.0))


@pytest.mark.parametrize(
    "section, key, value, field, want",
    [
        ("expansion", "max_angle_degrees", 90, "max_angle", math.pi / 2),
        ("expansion", "mac_threshold_degrees", 180, "mac_threshold", math.pi),
        ("vocabulary", "noise_angle_degrees", 180, "noise_angle", math.pi),
        ("expansion", "label_iou_min", 1, "label_iou_min", 1),
        ("detector", "score_threshold", 0, "score_threshold", 0),
        ("expansion", "num_expansions", 0, "num_expansions", 0),
    ],
)
def test_closed_bounds_load(section, key, value, field, want):
    """A value on a closed end of its key's rule loads; an angle's degree
    bound is the same float as the radians it is compared in."""
    config = experiment_config_from_dict({section: {key: value}})
    assert getattr(getattr(config, section), field) == want


def test_config_rejects_unknown_and_invalid():
    with pytest.raises(ConfigError, match="unknown top-level"):
        experiment_config_from_dict({"worlds": {}})
    with pytest.raises(ConfigError, match="unknown key 'frobnicate'"):
        experiment_config_from_dict({"expansion": {"frobnicate": 1}})
    with pytest.raises(ConfigError, match="section 'expansion'"):
        experiment_config_from_dict({"expansion": {"gamma": -1.0}})
    with pytest.raises(ConfigError, match="must be a mapping"):
        experiment_config_from_dict({"detector": [1, 2]})
    with pytest.raises(ConfigError, match="must be a mapping"):
        experiment_config_from_dict([])
    with pytest.raises(ConfigError, match="max_dets"):
        experiment_config_from_dict({"max_dets": []})
    for caps in (["ten"], [1.9, -3, 10], [0, 10], [True, 10], [math.inf], "10"):
        with pytest.raises(ConfigError, match="max_dets"):
            experiment_config_from_dict({"max_dets": caps})
    assert experiment_config_from_dict({"max_dets": [10.0, 1]}).max_dets == (1, 10)
    # radian-valued field names are reserved for their *_degrees forms
    with pytest.raises(ConfigError, match="unknown key"):
        experiment_config_from_dict({"expansion": {"max_angle": 0.2}})


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("expansion", "epochs_per_round", 2.5),
        ("world", "seed", 0.5),
        ("world", "width", 640.5),
        ("world", "num_scenes", True),
        ("world", "seed", 2**63),
        ("world", "concentration", "20"),
        ("detector", "logit_scale", False),
        ("expansion", "early_stop", "no"),
        ("expansion", "early_stop", 1),
        ("expansion", "max_angle_degrees", None),
        ("world", "size_mix", [0.5, 0.5]),
        ("world", "size_mix", [0.35, "0.4", 0.25]),
        ("vocabulary", "style", 3),
    ],
)
def test_config_value_of_the_wrong_type_is_a_config_error(tmp_path, capsys, section, key, value):
    path = tmp_path / "config.yaml"
    path.write_text(json.dumps({section: {key: value}}))  # JSON is YAML
    code = main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"error[config]: section '{section}': '{key}' must be")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "section, key, text",
    [
        ("detector", "box_noise", ".nan"),
        ("expansion", "learning_rate", ".inf"),
        ("expansion", "max_angle_degrees", ".nan"),
        ("detector", "logit_bias", "-.inf"),
        pytest.param("world", "concentration", "1" + "0" * 400, id="world-concentration-10**400"),
        ("world", "size_mix", "[.nan, 0.5, 0.5]"),
    ],
)
def test_non_finite_config_value_is_a_config_error(tmp_path, capsys, section, key, text):
    """YAML spells NaN and the infinities ``.nan`` and ``.inf``, which JSON
    cannot write; a 400-digit integer is past float range."""
    path = tmp_path / "config.yaml"
    path.write_text(f"{section}:\n  {key}: {text}\n")
    code = main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error[config]: section '{section}': '{key}' must be "), err
    assert "finite" in err
    assert not (tmp_path / "out").exists()


def test_whole_number_config_values_are_stored_as_integers():
    doc = {"world": {"width": 640.0}, "expansion": {"epochs_per_round": 3.0}}
    config = experiment_config_from_dict(doc)
    assert type(config.world.width) is int and config.world.width == 640
    assert type(config.expansion.epochs_per_round) is int and config.expansion.epochs_per_round == 3


def test_max_dets_sorted_and_deduplicated_order():
    config = experiment_config_from_dict({"max_dets": [100, 1, 10]})
    assert config.max_dets == (1, 10, 100)


def test_yaml_round_trip(tmp_path):
    path = tmp_path / "config.yaml"
    path.write_text(
        "world:\n"
        "  dim: 8\n"
        "  num_clusters: 2\n"
        "  objects_per_cluster: 5\n"
        "  num_scenes: 5\n"
        "  objects_per_scene: 2\n"
        "expansion:\n"
        "  num_children: 3\n"
        "  epochs_per_round: 2\n"
        "max_dets: [10, 100]\n"
    )
    config = load_experiment_config(path)
    assert config.world.dim == 8
    assert config.expansion.num_children == 3
    assert config.max_dets == (10, 100)
    # feeding the dumped form back reproduces the same configuration
    again = experiment_config_from_dict(json.loads(json.dumps(config.as_dict())))
    assert again.world == config.world
    assert again.expansion.num_children == config.expansion.num_children
    assert again.expansion.max_angle == pytest.approx(config.expansion.max_angle)
    assert again.max_dets == config.max_dets


def test_shipped_default_config_is_the_default():
    path = Path(__file__).resolve().parent.parent / "configs" / "default.yaml"
    assert load_experiment_config(path) == ExperimentConfig()


def test_yaml_errors(tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("world: [unclosed\n")
    with pytest.raises(ConfigError, match="invalid YAML"):
        load_experiment_config(bad)
    with pytest.raises(ConfigError):
        load_experiment_config(tmp_path / "missing.yaml")


def test_with_seed_reseeds_every_component():
    reseeded = with_seed(FAST_CONFIG, 42)
    assert reseeded.world.seed == 42
    assert reseeded.expansion.seed == 42
    assert reseeded.vocabulary.seed == 42
    assert reseeded.detector == FAST_CONFIG.detector
    assert reseeded.world.dim == FAST_CONFIG.world.dim


def test_pilot_contrasts_vocabulary_styles(tmp_path):
    out = run_pilot_merging(FAST_CONFIG, [0, 1], tmp_path / "pilot")
    rows = read_csv_rows(out / "pilot.csv")
    assert len(rows) == 4
    assert [r["vocabulary"] for r in rows] == [
        "dispersed", "dispersed", "overlapping", "overlapping",
    ]
    for row in rows:
        if row["vocabulary"] == "dispersed":
            assert row["overlap_penalty"] == "1.000000"
        else:
            assert float(row["overlap_penalty"]) < 1.0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["experiment"] == "pilot"
    assert manifest["seeds"] == [0, 1]
    assert manifest["artifacts"]["pilot.csv"] == sha256(out / "pilot.csv")


def test_pilot_builds_each_world_once(tmp_path, monkeypatch):
    import dipex.experiments as experiments

    built = []
    real = experiments.generate_world

    def counting(config):
        built.append(config.seed)
        return real(config)

    monkeypatch.setattr(experiments, "generate_world", counting)
    out = run_pilot_merging(FAST_CONFIG, [0, 1], tmp_path / "pilot")
    assert built == [0, 1]
    rows = read_csv_rows(out / "pilot.csv")
    assert [(r["vocabulary"], r["seed"]) for r in rows] == [
        ("dispersed", "0"), ("dispersed", "1"), ("overlapping", "0"), ("overlapping", "1"),
    ]


def _count_noise_directions(monkeypatch):
    """The (seed, scene, object) of every shift direction the detector hashes."""
    import dipex.detector as detector

    calls = []
    real = detector._noise_direction

    def counting(seed, scene_id, object_id):
        calls.append((seed, scene_id, object_id))
        return real(seed, scene_id, object_id)

    monkeypatch.setattr(detector, "_noise_direction", counting)
    return calls


def test_pilot_packs_each_world_once(tmp_path, monkeypatch):
    """Both vocabularies in both query modes share one pack of the world, so
    each object's shift direction is hashed once."""
    calls = _count_noise_directions(monkeypatch)
    assert main(["pilot", "--seed", "0", "--out", str(tmp_path / "pilot")]) == 0
    config = WorldConfig()
    assert sorted(calls) == sorted(set(calls))
    assert len(calls) == config.num_clusters * config.objects_per_cluster


def test_run_packs_the_world_once(tmp_path, monkeypatch):
    """Training, activation counting, label passes, evaluation and the
    artifact writer share one pack of the world."""
    calls = _count_noise_directions(monkeypatch)
    run_dipex(FAST_CONFIG, tmp_path / "run")
    assert sorted(calls) == sorted(set(calls))
    assert len(calls) == TINY_WORLD.num_clusters * TINY_WORLD.objects_per_cluster


def test_run_writes_expected_artifacts(tmp_path):
    out, result = run_dipex(FAST_CONFIG, tmp_path / "run")
    expected = {
        "rounds.csv",
        "mac_report.csv",
        "angles_round_2.csv",
        "losses.csv",
        "activations.csv",
        "tree.json",
        "detections.json",
        "ground_truth.json",
        "labels.json",
        "summary.json",
        "manifest.json",
    }
    assert {p.name for p in out.iterdir()} == expected
    rounds = read_csv_rows(out / "rounds.csv")
    assert len(rounds) == 2
    assert rounds[0]["num_prompts"] == "1"
    assert rounds[1]["num_prompts"] == "3"
    assert rounds[0]["alpha_max_degrees"] == ""  # single prompt has no spread
    assert rounds[1]["alpha_max_degrees"] != ""
    summary = json.loads((out / "summary.json").read_text())
    assert summary["num_prompts"] == 3
    assert summary["rounds_trained"] == 2
    assert summary["label_counts"] == list(result.label_counts)
    losses = read_csv_rows(out / "losses.csv")
    assert len(losses) == 2 * FAST_EXPANSION.epochs_per_round
    manifest = json.loads((out / "manifest.json").read_text())
    assert set(manifest["artifacts"]) == expected - {"manifest.json"}


def test_activations_csv_writes_each_share_of_its_expansion(tmp_path):
    """activations.csv writes each count over its expansion's total, and
    0 for every prompt of an expansion where no label was assigned."""
    config = ExperimentConfig(world=TINY_WORLD, expansion=replace(FAST_EXPANSION, num_expansions=2))
    _, result = run_dipex(config, tmp_path / "run")
    result.activation_history[0] = np.zeros_like(result.activation_history[0])
    out = tmp_path / "rewritten"
    out.mkdir()
    _write_run_artifacts(out, config, generate_world(config.world), result)
    want = []
    for expansion, counts in enumerate(result.activation_history, start=1):
        total = int(counts.sum())
        want += [
            (str(expansion), str(pid), str(count), f"{count / total:.6f}" if expansion > 1 else "0.000000")
            for pid, count in enumerate(counts.tolist())
        ]
    assert result.activation_history[1].sum() > 0
    assert [tuple(row.values()) for row in read_csv_rows(out / "activations.csv")] == want


def test_run_artifacts_are_byte_identical_across_reruns(tmp_path):
    out_a, _ = run_dipex(FAST_CONFIG, tmp_path / "a")
    out_b, _ = run_dipex(FAST_CONFIG, tmp_path / "b")
    names = sorted(p.name for p in out_a.iterdir())
    assert names == sorted(p.name for p in out_b.iterdir())
    for name in names:
        assert sha256(out_a / name) == sha256(out_b / name), name


def test_output_directory_protection(tmp_path):
    """``overwrite`` reuses a directory without removing any file, and the
    manifest lists only the files this run wrote: the same bytes as in a
    fresh directory."""
    target = tmp_path / "occupied"
    longer = replace(FAST_CONFIG, expansion=replace(FAST_EXPANSION, num_expansions=2, early_stop=False))
    run_dipex(longer, target)
    assert (target / "angles_round_3.csv").exists()
    (target / "keep.txt").write_text("data")
    with pytest.raises(FileExistsError, match="--overwrite"):
        run_dipex(FAST_CONFIG, target)
    out, _ = run_dipex(FAST_CONFIG, target, overwrite=True)
    assert (out / "rounds.csv").exists()
    assert (out / "keep.txt").read_text() == "data"
    assert (out / "angles_round_3.csv").exists()
    listed = json.loads((out / "manifest.json").read_text())["artifacts"]
    assert "keep.txt" not in listed and "angles_round_3.csv" not in listed
    fresh, _ = run_dipex(FAST_CONFIG, tmp_path / "fresh")
    assert (out / "manifest.json").read_bytes() == (fresh / "manifest.json").read_bytes()


def test_prompt_count_sweep(tmp_path):
    out = run_sweep(FAST_CONFIG, "sweep-k", [2, 3], tmp_path / "k")
    rows = read_csv_rows(out / "sweep_k.csv")
    assert [r["num_children"] for r in rows] == ["2", "3"]
    assert [r["num_prompts"] for r in rows] == ["3", "4"]
    assert all(r["ar_100"] != "" for r in rows)


def test_gamma_sweep_reports_geometry(tmp_path):
    out = run_sweep(FAST_CONFIG, "sweep-gamma", [0.1], tmp_path / "g")
    rows = read_csv_rows(out / "sweep_gamma.csv")
    assert len(rows) == 1
    assert rows[0]["gamma"] == "0.1"
    assert rows[0]["mean_parent_child_degrees"] != ""
    assert rows[0]["mean_sibling_degrees"] != ""


# sha256 of the sweep CSVs on FAST_CONFIG, captured when sweep-k and
# sweep-gamma still had a driver each
PINNED_SWEEP_CSVS = {
    "sweep_k.csv": "da7a30aede6c7be0dce47fcedfe28528fdda9a969b4a82bd43248812985d7e4d",
    "sweep_gamma.csv": "d53218f204037297ebda168ba9c44bff74b4903401377838ed1552cc27e826b3",
}


def test_sweep_csvs_match_pinned_sha256(tmp_path):
    k = run_sweep(FAST_CONFIG, "sweep-k", [2, 3], tmp_path / "k")
    gamma = run_sweep(FAST_CONFIG, "sweep-gamma", [0.1, 1.0], tmp_path / "g")
    got = {path.name: sha256(path) for path in (k / "sweep_k.csv", gamma / "sweep_gamma.csv")}
    assert got == PINNED_SWEEP_CSVS


# sha256 of manifest.json, which hashes every other artifact, for
# `dipex run --seed 0 --config configs/<preset>`
PINNED_PRESET_MANIFESTS = {
    "hard.yaml": "ff9bc248bb623ba34f30ab6b2eb0a789caad75308664667ac05da5bf98eda0fe",
    "world128.yaml": "7d53e1675bc0a7e021c5500229a4011fcd97f8342a0663ac4b046aa113e4a54f",
}


@pytest.mark.parametrize("preset", sorted(PINNED_PRESET_MANIFESTS))
def test_preset_runs_match_pinned_manifest(tmp_path, capsys, preset):
    config = Path(__file__).resolve().parent.parent / "configs" / preset
    assert main(["run", "--seed", "0", "--config", str(config), "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert sha256(tmp_path / "manifest.json") == PINNED_PRESET_MANIFESTS[preset]


def test_eval_only_round_trips_run_output(tmp_path):
    out, result = run_dipex(FAST_CONFIG, tmp_path / "run")
    eval_out, summary = run_eval_only(
        out / "ground_truth.json",
        [out / "detections.json"],
        tmp_path / "eval",
        max_dets=FAST_CONFIG.max_dets,
    )
    final = result.eval_summaries[-1]
    for cap in FAST_CONFIG.max_dets:
        if final.ar_at[cap] is None:
            assert summary.ar_at[cap] is None
        else:
            assert summary.ar_at[cap] == pytest.approx(final.ar_at[cap], abs=1e-9)
    assert summary.ap == pytest.approx(final.ap, abs=1e-9)
    assert (eval_out / "summary.json").exists()
    assert (eval_out / "summary.csv").exists()


def test_eval_only_merges_duplicate_sources(tmp_path):
    out, _ = run_dipex(FAST_CONFIG, tmp_path / "run")
    dets = out / "detections.json"
    plain_out, plain = run_eval_only(
        out / "ground_truth.json", [dets, dets], tmp_path / "plain"
    )
    merged_out, merged = run_eval_only(
        out / "ground_truth.json", [dets, dets], tmp_path / "merged", merge=True
    )
    assert plain.num_detections == merged.num_detections
    # suppression cannot hurt recall here and the doubled copies tie anyway
    assert merged.ar_at[100] == pytest.approx(plain.ar_at[100], abs=1e-9)
    gts = load_coco_ground_truth(out / "ground_truth.json")
    assert plain.num_scenes == len(gts.scene_dims)


def test_eval_only_manifest_hashes_inputs_and_outputs(tmp_path):
    out, _ = run_dipex(FAST_CONFIG, tmp_path / "run")
    gt, dets = out / "ground_truth.json", out / "detections.json"
    first, _ = run_eval_only(gt, [dets, dets], tmp_path / "a", merge=True)
    again, _ = run_eval_only(gt, [dets, dets], tmp_path / "b", merge=True)
    manifest = json.loads((first / "manifest.json").read_text())
    assert manifest["experiment"] == "eval"
    assert manifest["config"] == {
        "merge": True, "nms_sigma": 0.5, "nms_floor": 0.001, "max_dets": [1, 10, 100]
    }
    assert manifest["ground_truth_sha256"] == sha256(gt)
    assert manifest["detections_sha256"] == [sha256(dets), sha256(dets)]
    on_disk = {p.name: sha256(p) for p in first.iterdir() if p.name != "manifest.json"}
    assert manifest["artifacts"] == on_disk == {"summary.json": ANY, "summary.csv": ANY}
    # nothing in it depends on where the output went
    assert (first / "manifest.json").read_bytes() == (again / "manifest.json").read_bytes()
