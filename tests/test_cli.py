import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from dipex.cli import build_parser, main

ROOT = Path(__file__).resolve().parent.parent

TINY_YAML = """\
world:
  dim: 8
  num_clusters: 2
  objects_per_cluster: 5
  num_scenes: 5
  objects_per_scene: 2
  seed: 7
expansion:
  num_children: 2
  num_expansions: 1
  epochs_per_round: 2
  seed: 5
"""


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "config.yaml"
    path.write_text(TINY_YAML)
    return path


def write_eval_fixture(tmp_path):
    """Two scenes with exact detections, plus a capped third det in scene 1."""
    gt = {
        "images": [
            {"id": 1, "width": 100, "height": 100},
            {"id": 2, "width": 100, "height": 100},
        ],
        "annotations": [
            {"id": 1, "image_id": 1, "bbox": [10.0, 10.0, 40.0, 40.0]},
            {"id": 2, "image_id": 1, "bbox": [60.0, 60.0, 30.0, 30.0]},
            {"id": 3, "image_id": 2, "bbox": [5.0, 5.0, 50.0, 50.0]},
        ],
        "categories": [{"id": 1, "name": "object"}],
    }
    dets = [
        {"image_id": 1, "category_id": 1, "bbox": [10.0, 10.0, 40.0, 40.0], "score": 0.9},
        {"image_id": 1, "category_id": 1, "bbox": [60.0, 60.0, 30.0, 30.0], "score": 0.8},
        {"image_id": 2, "category_id": 1, "bbox": [5.0, 5.0, 50.0, 50.0], "score": 0.7},
    ]
    gt_path = tmp_path / "gt.json"
    det_path = tmp_path / "dets.json"
    gt_path.write_text(json.dumps(gt))
    det_path.write_text(json.dumps(dets))
    return gt_path, det_path


def test_parser_requires_subcommand():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_run_subcommand(config_path, tmp_path, capsys):
    out = tmp_path / "run"
    code = main(["run", "--config", str(config_path), "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 0
    assert "rounds: 2  prompts: 3" in captured.out
    assert f"wrote {out / 'rounds.csv'}" in captured.out
    assert (out / "tree.json").exists()


def test_run_with_zero_expansions_writes_header_only_tables(tmp_path, capsys):
    """With no expansion there is no MAC and no activation count: those
    tables are their header alone, and no angle matrix is written."""
    path = tmp_path / "config.yaml"
    path.write_text(TINY_YAML.replace("num_expansions: 1", "num_expansions: 0"))
    out = tmp_path / "run"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 0
    assert "rounds: 1  prompts: 1" in capsys.readouterr().out
    assert (out / "mac_report.csv").read_text() == "round,alpha_max_degrees\n"
    assert (out / "activations.csv").read_text() == "expansion,prompt_id,count,frequency\n"
    assert not list(out.glob("angles_round_*.csv"))
    header, row = (out / "rounds.csv").read_text().splitlines()
    assert header.endswith(",alpha_max_degrees") and row.startswith("1,1,") and row.endswith(",")
    artifacts = json.loads((out / "manifest.json").read_text())["artifacts"]
    assert {"mac_report.csv", "activations.csv", "losses.csv"} <= set(artifacts)


def _run_python(args: list[str]) -> subprocess.CompletedProcess:
    """``python args`` in a fresh interpreter that imports dipex from src/."""
    inherited = [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    path = os.pathsep.join([str(ROOT / "src"), *inherited])
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=120,
    )


def test_run_all_script(config_path, tmp_path):
    """scripts/run_all.py runs the pilot, one growth run per seed and every
    sweep of ``experiments.SWEEPS`` at its default values; the tiny config's
    seed is 5."""
    out = tmp_path / "results"
    args = ["--config", str(config_path), "--out", str(out), "--seeds", "1"]
    proc = _run_python([str(ROOT / "scripts" / "run_all.py"), *args])
    assert proc.returncode == 0, proc.stderr
    assert (out / "pilot" / "pilot.csv").exists()
    assert (out / "run_seed5" / "rounds.csv").exists()
    assert "seed 5: rounds 2, prompts 3" in proc.stdout
    k_rows = (out / "sweep_k" / "sweep_k.csv").read_text().splitlines()
    gamma_rows = (out / "sweep_gamma" / "sweep_gamma.csv").read_text().splitlines()
    assert [row.split(",")[0] for row in k_rows] == ["num_children", "3", "6", "9", "12"]
    assert [row.split(",")[0] for row in gamma_rows] == ["gamma", "0.01", "0.1", "1", "5"]


@pytest.mark.parametrize("seeds", ["0", "-2"])
def test_run_all_script_rejects_fewer_than_one_seed(config_path, tmp_path, seeds):
    """A seed count below 1 is a usage error, before anything is written."""
    out = tmp_path / "results"
    args = ["--config", str(config_path), "--out", str(out), "--seeds", seeds]
    proc = _run_python([str(ROOT / "scripts" / "run_all.py"), *args])
    assert proc.returncode == 2
    assert "--seeds" in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize(
    "settings, code, category",
    [("expansion:\n  label_threshold: 0.99\n", 4, "runtime"), ("world:\n  dim: 1\n", 2, "config")],
    ids=["no-labels", "bad-config"],
)
def test_run_all_script_reports_a_failed_step_as_the_cli_does(tmp_path, capsys, settings, code, category):
    """A step that fails (no pseudo-labels survive the threshold, or a bad
    config) ends run_all.py with the category and exit code that ``dipex
    run`` gives the same config, and with no traceback."""
    config = tmp_path / "config.yaml"
    config.write_text(settings)
    args = ["--config", str(config), "--out", str(tmp_path / "results"), "--seeds", "1"]
    proc = _run_python([str(ROOT / "scripts" / "run_all.py"), *args])
    assert proc.returncode == code
    assert proc.stderr.startswith(f"error[{category}]: ")
    assert "Traceback" not in proc.stderr
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "run")]) == code
    assert capsys.readouterr().err == proc.stderr


def _loaded_by_the_cli(argv: list[str] | None = None) -> set[str]:
    """The modules a fresh interpreter holds after ``import dipex.cli`` and,
    given ``argv``, a successful ``main(argv)``."""
    script = "import sys\nfrom dipex.cli import main\n"
    if argv is not None:
        script += f"assert main({argv!r}) == 0\n"
    script += "print(' '.join(sorted(sys.modules)))\n"
    proc = _run_python(["-c", script])
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.splitlines()[-1].split())


def test_run_does_not_import_numpy_ma(config_path, tmp_path):
    """numpy.ma, which np.unique pulls in, takes 12-16 ms and 1.2 MB of peak
    memory to import (numpy 2.4, 2 vCPUs); a run needs none of it."""
    out = tmp_path / "run"
    loaded = _loaded_by_the_cli(["run", "--config", str(config_path), "--out", str(out)])
    assert (out / "rounds.csv").exists()
    assert "numpy.ma" not in loaded


def _imported_by_the_cli(module: str) -> bool:
    """Whether ``import dipex.cli`` in a fresh interpreter imports ``module``."""
    return module in _loaded_by_the_cli()


def test_importing_the_cli_does_not_import_yaml():
    """yaml takes about 18 ms to import (2 vCPUs) and only --config needs it."""
    assert not _imported_by_the_cli("yaml")


def test_importing_the_cli_does_not_import_logging():
    """logging takes about 6 ms to import (2 vCPUs) and only degenerate box
    losses log."""
    assert not _imported_by_the_cli("logging")


def test_eval_loads_no_growth_module(tmp_path):
    """``dipex eval`` scores files: it runs none of the world, the detector
    or training, so it never pays for importing them."""
    gt_path, det_path = write_eval_fixture(tmp_path)
    argv = ["eval", "--merge", "--gt", str(gt_path), "--dets", str(det_path), "--out", str(tmp_path / "e")]
    loaded = _loaded_by_the_cli(argv)
    assert (tmp_path / "e" / "summary.json").exists()
    growth = {"expansion", "detector", "world", "dispersion", "geometry", "detection_losses"}
    assert loaded & {f"dipex.{name}" for name in growth} == set()


def test_pilot_loads_no_training_module(config_path, tmp_path):
    """``dipex pilot`` detects and scores but never trains."""
    argv = ["pilot", "--config", str(config_path), "--seed", "0", "--out", str(tmp_path / "p")]
    loaded = _loaded_by_the_cli(argv)
    assert "dipex.detector" in loaded and (tmp_path / "p" / "pilot.csv").exists()
    assert loaded & {"dipex.expansion", "dipex.dispersion", "dipex.detection_losses"} == set()


def test_run_seed_flag_reseeds_everything(config_path, tmp_path, capsys):
    code = main(
        ["run", "--config", str(config_path), "--out", str(tmp_path / "r3"), "--seed", "3"]
    )
    assert code == 0
    manifest = json.loads((tmp_path / "r3" / "manifest.json").read_text())
    assert manifest["seeds"] == [3]
    assert manifest["config"]["world"]["seed"] == 3
    capsys.readouterr()


def test_pilot_subcommand(config_path, tmp_path, capsys):
    out = tmp_path / "pilot"
    code = main(
        [
            "pilot",
            "--config", str(config_path),
            "--out", str(out),
            "--seed", "0",
            "--seed", "1",
        ]
    )
    captured = capsys.readouterr()
    assert code == 0
    assert f"wrote {out / 'pilot.csv'}" in captured.out
    rows = (out / "pilot.csv").read_text().strip().split("\n")
    assert len(rows) == 5  # header + 2 styles x 2 seeds


def test_pilot_defaults_to_five_seeds_from_the_expansion_seed(config_path, tmp_path, capsys):
    """Without --seed, pilot scores the five consecutive seeds that start at
    ``expansion.seed`` (5 in the tiny config), each once per style."""
    out = tmp_path / "pilot"
    assert main(["pilot", "--config", str(config_path), "--out", str(out)]) == 0
    capsys.readouterr()
    assert json.loads((out / "manifest.json").read_text())["seeds"] == [5, 6, 7, 8, 9]
    rows = [line.split(",") for line in (out / "pilot.csv").read_text().strip().split("\n")[1:]]
    assert [(row[0], int(row[1])) for row in rows] == [
        (style, seed) for style in ("dispersed", "overlapping") for seed in range(5, 10)
    ]


@pytest.mark.parametrize(
    "repeated, once",
    [
        (["pilot", "--seed", "1", "--seed", "1"], ["pilot", "--seed", "1"]),
        (["sweep-k", "--k", "3", "3"], ["sweep-k", "--k", "3"]),
    ],
    ids=["pilot", "sweep-k"],
)
def test_a_repeated_seed_or_value_is_computed_once(config_path, tmp_path, capsys, repeated, once):
    """A seed or sweep value given twice writes the same bytes, manifest
    included, as the same seed or value given once."""
    written = []
    for i, argv in enumerate((repeated, once)):
        out = tmp_path / f"out{i}"
        assert main([*argv, "--config", str(config_path), "--out", str(out)]) == 0
        written.append({path.name: path.read_bytes() for path in out.iterdir()})
    capsys.readouterr()
    assert written[0] == written[1]


def test_sweep_subcommands(config_path, tmp_path, capsys):
    assert main(
        [
            "sweep-k",
            "--config", str(config_path),
            "--out", str(tmp_path / "k"),
            "--k", "2", "3",
        ]
    ) == 0
    assert (tmp_path / "k" / "sweep_k.csv").exists()
    assert main(
        [
            "sweep-gamma",
            "--config", str(config_path),
            "--out", str(tmp_path / "g"),
            "--gamma", "0.1",
        ]
    ) == 0
    assert (tmp_path / "g" / "sweep_gamma.csv").exists()
    capsys.readouterr()


def test_eval_subcommand(tmp_path, capsys):
    gt_path, det_path = write_eval_fixture(tmp_path)
    out = tmp_path / "eval"
    code = main(
        ["eval", "--gt", str(gt_path), "--dets", str(det_path), "--out", str(out)]
    )
    captured = capsys.readouterr()
    assert code == 0
    assert "ar_100: 1.0000" in captured.out
    assert f"wrote {out / 'summary.json'}" in captured.out
    summary = json.loads((out / "summary.json").read_text())
    assert summary["ap"] == pytest.approx(1.0)
    assert summary["ar"]["1"] == pytest.approx(2.0 / 3.0)


def test_eval_merge_flag(tmp_path, capsys):
    gt_path, det_path = write_eval_fixture(tmp_path)
    code = main(
        [
            "eval",
            "--gt", str(gt_path),
            "--dets", str(det_path),
            "--dets", str(det_path),
            "--merge",
            "--out", str(tmp_path / "eval"),
        ]
    )
    assert code == 0
    capsys.readouterr()


def test_malformed_detections_exit_code(tmp_path, capsys):
    gt_path, _ = write_eval_fixture(tmp_path)
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    code = main(
        ["eval", "--gt", str(gt_path), "--dets", str(broken), "--out", str(tmp_path / "e")]
    )
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err.startswith("error[data]:")


def _eval_exit(tmp_path, capsys, gt_path, det_path):
    code = main(
        ["eval", "--gt", str(gt_path), "--dets", str(det_path), "--out", str(tmp_path / "e")]
    )
    return code, capsys.readouterr().err


def test_inverted_box_is_a_data_error(tmp_path, capsys):
    gt_path, det_path = write_eval_fixture(tmp_path)
    doc = json.loads(gt_path.read_text())
    doc["annotations"][1]["bbox"] = [60.0, 60.0, -30.0, 30.0]
    bad_gt = tmp_path / "bad_gt.json"
    bad_gt.write_text(json.dumps(doc))
    code, err = _eval_exit(tmp_path, capsys, bad_gt, det_path)
    assert code == 3
    assert err.startswith("error[data]:") and "annotations[1]" in err and "inverted" in err

    dets = json.loads(det_path.read_text())
    dets[2]["bbox"] = [5.0, 5.0, 50.0, -1.0]
    bad_dets = tmp_path / "bad_dets.json"
    bad_dets.write_text(json.dumps(dets))
    code, err = _eval_exit(tmp_path, capsys, gt_path, bad_dets)
    assert code == 3
    assert err.startswith("error[data]:") and "results[2]" in err and "inverted" in err


@pytest.mark.parametrize("area", [-1.0, float("nan"), float("inf")])
def test_bad_ground_truth_area_is_a_data_error(tmp_path, capsys, area):
    gt_path, det_path = write_eval_fixture(tmp_path)
    doc = json.loads(gt_path.read_text())
    doc["annotations"][2]["area"] = area
    gt_path.write_text(json.dumps(doc))  # NaN and Infinity literals
    code, err = _eval_exit(tmp_path, capsys, gt_path, det_path)
    assert code == 3
    assert err.startswith("error[data]:") and "annotations[2]" in err and "area" in err


@pytest.mark.parametrize("score", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_score_is_a_data_error(tmp_path, capsys, score):
    gt_path, det_path = write_eval_fixture(tmp_path)
    dets = json.loads(det_path.read_text())
    dets[0]["score"] = score
    det_path.write_text(json.dumps(dets))  # NaN and Infinity literals
    code, err = _eval_exit(tmp_path, capsys, gt_path, det_path)
    assert code == 3
    assert err.startswith("error[data]:") and "non-finite score" in err


@pytest.mark.parametrize(
    "index, field, value, problem",
    [
        (1, "bbox", [60.0, 60.0, -30.0, 30.0], "inverted box"),
        (2, "bbox", [5.0, float("nan"), 50.0, 50.0], "non-finite box coordinates"),
        (1, "score", float("inf"), "non-finite score"),
        (2, "bbox", [1e308, 0.0, 1e308, 1.0], "non-finite box coordinates"),  # x + w overflows
    ],
)
def test_first_bad_detection_record_is_a_data_error(tmp_path, capsys, index, field, value, problem):
    gt_path, det_path = write_eval_fixture(tmp_path)
    dets = json.loads(det_path.read_text())
    dets[index][field] = value
    # later bad records, of every kind, do not mask the first one
    dets += [{"image_id": 1, "bbox": [0.0, 0.0, -1.0, 1.0], "score": 0.5}, {"image_id": 1}]
    det_path.write_text(json.dumps(dets))  # NaN and Infinity literals
    for merge in ([], ["--merge"]):
        args = ["eval", "--gt", str(gt_path), "--dets", str(det_path), *merge]
        code = main(args + ["--out", str(tmp_path / "e")])
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("error[data]:") and f"results[{index}]" in err and problem in err
        assert "results[3]" not in err and "results[4]" not in err
        assert not (tmp_path / "e" / "summary.json").exists()


def test_missing_field_before_a_bad_box_is_reported_first(tmp_path, capsys):
    gt_path, det_path = write_eval_fixture(tmp_path)
    dets = json.loads(det_path.read_text())
    del dets[1]["score"]
    dets[2]["bbox"] = [5.0, 5.0, -50.0, 50.0]
    det_path.write_text(json.dumps(dets))
    code, err = _eval_exit(tmp_path, capsys, gt_path, det_path)
    assert code == 3
    assert err.startswith("error[data]:") and "results[1] missing image_id/bbox/score" in err


@pytest.mark.parametrize(
    "field, value, problem",
    [
        ("image_id", 1.9, "image_id must be an integer"),
        ("image_id", True, "image_id must be an integer"),
        ("image_id", "1", "image_id must be an integer"),
        ("bbox", "1234", "bbox must be a list of 4 numbers"),
        ("bbox", [5.0, "5", 10.0, 10.0], "bbox must be a number"),
        ("bbox", [5.0, 5.0, 10.0, False], "bbox must be a number"),
        ("score", "0.5", "score must be a number"),
        ("score", None, "score must be a number"),
        ("image_id", 1e20, "image_id must be an integer"),
        ("image_id", 10**20, "image_id must be an integer"),
        ("score", 10**400, "score must be a number"),
    ],
)
def test_detection_field_of_the_wrong_type_is_a_data_error(tmp_path, capsys, field, value, problem):
    gt_path, det_path = write_eval_fixture(tmp_path)
    dets = json.loads(det_path.read_text())
    dets[2][field] = value
    det_path.write_text(json.dumps(dets))
    code, err = _eval_exit(tmp_path, capsys, gt_path, det_path)
    assert code == 3
    assert err.startswith("error[data]:") and "results[2]: " + problem in err
    assert not (tmp_path / "e" / "summary.json").exists()


@pytest.mark.parametrize(
    "section, index, field, value, problem",
    [
        ("annotations", 1, "image_id", 1.5, "image_id must be an integer"),
        ("annotations", 1, "image_id", True, "image_id must be an integer"),
        ("annotations", 2, "bbox", "5555", "bbox must be a list of 4 numbers"),
        ("annotations", 2, "bbox", [5.0, 5.0, "50", 50.0], "bbox must be a number"),
        ("annotations", 0, "area", "1600", "area must be a number"),
        ("annotations", 0, "iscrowd", "0", "iscrowd must be 0 or 1"),
        ("images", 1, "id", 2.5, "id must be an integer"),
        ("images", 0, "width", "100", "width must be an integer"),
        ("annotations", 1, "image_id", 1e20, "image_id must be an integer"),
        ("annotations", 1, "image_id", 10**20, "image_id must be an integer"),
        ("images", 1, "id", 10**20, "id must be an integer"),
        ("images", 0, "width", -5, "width and height must be non-negative"),
        ("images", 1, "height", -1, "width and height must be non-negative"),
        ("annotations", 0, "iscrowd", True, "iscrowd must be 0 or 1"),
        ("annotations", 0, "iscrowd", 1.0, "iscrowd must be 0 or 1"),
    ],
)
def test_ground_truth_field_of_the_wrong_type_is_a_data_error(
    tmp_path, capsys, section, index, field, value, problem
):
    gt_path, det_path = write_eval_fixture(tmp_path)
    doc = json.loads(gt_path.read_text())
    doc[section][index][field] = value
    gt_path.write_text(json.dumps(doc))
    code, err = _eval_exit(tmp_path, capsys, gt_path, det_path)
    assert code == 3
    assert err.startswith("error[data]:") and f"{section}[{index}]: {problem}" in err
    assert not (tmp_path / "e" / "summary.json").exists()


def test_whole_number_float_ids_still_load(tmp_path, capsys):
    gt_path, det_path = write_eval_fixture(tmp_path)
    expected = _eval_exit(tmp_path, capsys, gt_path, det_path)
    summary = json.loads((tmp_path / "e" / "summary.json").read_text())
    dets = json.loads(det_path.read_text())
    dets[2]["image_id"] = 2.0
    det_path.write_text(json.dumps(dets))
    code = main(["eval", "--gt", str(gt_path), "--dets", str(det_path), "--out", str(tmp_path / "f")])
    assert (code, capsys.readouterr().err) == expected
    assert json.loads((tmp_path / "f" / "summary.json").read_text()) == summary


def _ar_1(tmp_path, capsys, files, merge=False):
    """AR@1 from ``dipex eval`` of one scene whose one ground truth is the
    box [0, 0, 10, 10], given each detection file's (bbox, score) rows."""
    gt = {"images": [{"id": 1, "width": 50, "height": 50}],
          "annotations": [{"id": 1, "image_id": 1, "bbox": [0.0, 0.0, 10.0, 10.0]}]}
    (tmp_path / "gt.json").write_text(json.dumps(gt))
    args = ["eval", "--gt", str(tmp_path / "gt.json"), "--max-dets", "1"]
    for k, rows in enumerate(files):
        path = tmp_path / f"dets{k}.json"
        path.write_text(json.dumps([{"image_id": 1, "bbox": bbox, "score": score} for bbox, score in rows]))
        args += ["--dets", str(path)]
    out = tmp_path / "eval"
    assert main(args + ["--merge"] * merge + ["--out", str(out), "--overwrite"]) == 0
    capsys.readouterr()
    return json.loads((out / "summary.json").read_text())["ar"]["1"]


def test_eval_breaks_score_ties_in_file_order(tmp_path, capsys):
    hit, miss = ([0.0, 0.0, 10.0, 10.0], 0.5), ([30.0, 30.0, 10.0, 10.0], 0.5)
    assert _ar_1(tmp_path, capsys, [[miss], [hit]]) == 0.0
    assert _ar_1(tmp_path, capsys, [[hit], [miss]]) == 1.0


def test_eval_merge_breaks_score_ties_by_box(tmp_path, capsys):
    """Of two tied, overlapping boxes (IoU 1/3) the one with the smaller
    corners is selected first and keeps its score, whatever the file order."""
    hit, shifted = ([0.0, 0.0, 10.0, 10.0], 0.5), ([5.0, 0.0, 10.0, 10.0], 0.5)
    assert _ar_1(tmp_path, capsys, [[shifted, hit]], merge=True) == 1.0
    assert _ar_1(tmp_path, capsys, [[shifted], [hit]], merge=True) == 1.0


def test_duplicate_image_id_is_a_data_error(tmp_path, capsys):
    gt_path, det_path = write_eval_fixture(tmp_path)
    doc = json.loads(gt_path.read_text())
    doc["images"].append({"id": 1, "width": 50, "height": 50})
    gt_path.write_text(json.dumps(doc))
    code, err = _eval_exit(tmp_path, capsys, gt_path, det_path)
    assert code == 3
    assert err.startswith("error[data]:") and "repeats image id 1" in err


def test_schema_violation_exit_code(tmp_path, capsys):
    gt_path, det_path = write_eval_fixture(tmp_path)
    doc = json.loads(gt_path.read_text())
    del doc["images"]
    gt_path.write_text(json.dumps(doc))
    code = main(
        ["eval", "--gt", str(gt_path), "--dets", str(det_path), "--out", str(tmp_path / "e")]
    )
    captured = capsys.readouterr()
    assert code == 3
    assert "missing 'images'" in captured.err


def test_run_labels_score_the_run_detections(tmp_path, capsys):
    """labels.json lists every scene, labelled or not, so ``dipex eval`` can
    score the run's detections against it.  At label threshold 0.6 only a
    few of the 80 default scenes get labels."""
    path = tmp_path / "config.yaml"
    path.write_text("expansion:\n  label_threshold: 0.6\n  num_expansions: 1\n  epochs_per_round: 2\n")
    run = tmp_path / "run"
    assert main(["run", "--config", str(path), "--out", str(run)]) == 0
    doc = json.loads((run / "labels.json").read_text())
    assert [image["id"] for image in doc["images"]] == list(range(80))
    assert len({ann["image_id"] for ann in doc["annotations"]}) < 10
    eval_args = ["--gt", str(run / "labels.json"), "--dets", str(run / "detections.json")]
    code = main(["eval", *eval_args, "--out", str(tmp_path / "eval")])
    captured = capsys.readouterr()
    assert code == 0, captured.err


def test_bad_config_exit_code(tmp_path, capsys):
    path = tmp_path / "config.yaml"
    path.write_text("expansion:\n  num_childs: 4\n")
    code = main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error[config]:")
    assert "num_childs" in captured.err
    # caps are checked when the config loads, before any world is generated
    path.write_text("max_dets: [0, 10]\n")
    code = main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error[config]: max_dets")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("section", ["world", "expansion", "vocabulary"])
def test_negative_config_seed_exit_code(tmp_path, capsys, section):
    path = tmp_path / "config.yaml"
    path.write_text(f"{section}:\n  seed: -2\n")
    out = tmp_path / "out"
    code = main(["run", "--config", str(path), "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == f"error[config]: section '{section}': seed must be non-negative, got -2\n"
    assert not out.exists()


@pytest.mark.parametrize("caps", [["0"], ["-5", "10"]])
def test_eval_caps_checked_before_any_file(tmp_path, capsys, caps):
    """Bad --max-dets fails before the inputs are read (these do not exist)
    and before the output directory is made."""
    out = tmp_path / "out"
    missing = [str(tmp_path / "gt.json"), str(tmp_path / "dets.json")]
    code = main(["eval", "--gt", missing[0], "--dets", missing[1], "--max-dets", *caps, "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    values = ", ".join(caps)
    assert captured.err == f"error[config]: max_dets must be a non-empty list of integers >= 1, got [{values}]\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "command, section, setting, message",
    [
        ("run", "vocabulary", "duplicate_angle_degrees: -5", "duplicate_angle_degrees out of [0, 180]: -5.0\n"),
        ("pilot", "vocabulary", "duplicate_angle_degrees: -5", "duplicate_angle_degrees out of [0, 180]: -5.0\n"),
        ("run", "vocabulary", "noise_angle_degrees: 200", "noise_angle_degrees out of [0, 180]: 200.0\n"),
        ("pilot", "vocabulary", "noise_angle_degrees: -10", "noise_angle_degrees out of [0, 180]: -10.0\n"),
        ("run", "vocabulary", "min_separation_degrees: 180", "min_separation_degrees out of [0, 180): 180.0\n"),
        ("run", "expansion", "max_angle_degrees: 100", "max_angle_degrees out of (0, 90]: 100.0\n"),
        ("pilot", "expansion", "mac_threshold_degrees: 200", "mac_threshold_degrees out of (0, 180]: 200.0\n"),
        ("run", "expansion", "mac_tolerance_degrees: -1", "mac_tolerance_degrees must be non-negative, got -1.0\n"),
        ("pilot", "detector", "overlap_threshold_degrees: 180", "overlap_threshold_degrees out of (0, 180): 180.0\n"),
        ("run", "detector", "nms_sigma: 0", "nms_sigma must be positive, got 0"),
        ("pilot", "detector", "nms_sigma: -1", "nms_sigma must be positive, got -1"),
        ("run", "detector", "nms_floor: 1.5", "nms_floor out of [0, 1): 1.5\n"),
        ("pilot", "detector", "nms_floor: -3.0", "nms_floor out of [0, 1): -3.0\n"),
        ("run", "expansion", "tau_child: 0", "tau_child must be positive, got 0\n"),
        ("run", "expansion", "gamma_giou: -1", "gamma_giou must be non-negative, got -1\n"),
        ("run", "world", "num_clusters: 0", "num_clusters must be >= 1, got 0\n"),
        ("pilot", "world", "objects_per_scene: 0", "objects_per_scene must be >= 1, got 0\n"),
        ("pilot", "detector", "box_noise: -1", "box_noise must be non-negative, got -1\n"),
        ("run", "expansion", "batch_size: 0", "batch_size must be >= 1, got 0\n"),
        ("run", "expansion", "num_children: -4\n  num_expansions: 0", "num_children must be non-negative, got -4\n"),
        ("run", "expansion", "learning_rate: 0", "learning_rate must be positive, got 0\n"),
        ("run", "world", "width: -640\n  height: -480", "width must be >= 1, got -640\n"),
        ("pilot", "world", "width: 0", "width must be >= 1, got 0\n"),
        ("run", "world", "height: 0", "height must be >= 1, got 0\n"),
        (
            "run", "world", "size_mix: [1.5, -0.25, -0.25]",
            "size_mix needs three non-negative fractions: (1.5, -0.25, -0.25)\n",
        ),
    ],
)
def test_config_values_checked_before_any_output(tmp_path, capsys, command, section, setting, message):
    """Each value fails as a config error naming its own field, before the
    output directory is made."""
    path = tmp_path / "config.yaml"
    path.write_text(f"{section}:\n  {setting}\n")
    out = tmp_path / "out"
    code = main([command, "--config", str(path), "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith(f"error[config]: section '{section}': {message}")
    assert not out.exists()


@pytest.mark.parametrize(
    "fault", ["missing detections", "ground truth not JSON", "unknown image", "ground truth an array"]
)
def test_eval_bad_input_writes_nothing(tmp_path, capsys, fault):
    """A faulty input fails as a data error before the output directory is made."""
    gt_path, det_path = write_eval_fixture(tmp_path)
    if fault == "missing detections":
        det_path.unlink()
    elif fault == "ground truth not JSON":
        gt_path.write_text("{not json")
    elif fault == "ground truth an array":
        gt_path.write_text(json.dumps([json.loads(gt_path.read_text())]))
    else:
        det_path.write_text(json.dumps([{"image_id": 9, "category_id": 1, "bbox": [1, 1, 2, 2], "score": 0.5}]))
    out = tmp_path / "out"
    code = main(["eval", "--gt", str(gt_path), "--dets", str(det_path), "--out", str(out)])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("error[data]: ")
    if fault == "ground truth an array":
        assert "ground truth document must be a JSON object" in err
    assert not out.exists()


def test_eval_manifest_records_the_checked_caps(tmp_path, capsys):
    """The caps are scored sorted and without repeats, and the manifest
    records them so: the same caps in any order or multiplicity write the
    same bytes."""
    gt_path, det_path = write_eval_fixture(tmp_path)
    manifests = set()
    for i, caps in enumerate([["100", "10", "1"], ["1", "10", "100"], ["1", "10", "10", "100"]]):
        out = tmp_path / f"eval{i}"
        argv = ["eval", "--gt", str(gt_path), "--dets", str(det_path), "--max-dets", *caps, "--out", str(out)]
        assert main(argv) == 0
        manifests.add((out / "manifest.json").read_bytes())
    capsys.readouterr()
    assert len(manifests) == 1
    assert json.loads(manifests.pop())["config"]["max_dets"] == [1, 10, 100]


def test_occupied_output_dir_exit_code(config_path, tmp_path, capsys):
    out = tmp_path / "out"
    out.mkdir()
    (out / "precious.txt").write_text("do not clobber")
    code = main(["run", "--config", str(config_path), "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.err.startswith("error[runtime]:")
    assert (out / "precious.txt").read_text() == "do not clobber"
    code = main(
        ["run", "--config", str(config_path), "--out", str(out), "--overwrite"]
    )
    assert code == 0
    capsys.readouterr()


@pytest.mark.parametrize("flags", [["run", "--seed", "1"], ["sweep-k", "--k", "3"]])
def test_failed_growth_leaves_no_output_dir(tmp_path, capsys, flags):
    """A run that runs out of pseudo-labels in round 2 fails as a runtime
    error without making the output directory."""
    path = tmp_path / "config.yaml"
    path.write_text("expansion:\n  label_threshold: 0.99\n")
    out = tmp_path / "out"
    code = main([*flags, "--config", str(path), "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.err.startswith("error[runtime]: round 2:")
    assert not out.exists()


def test_missing_config_file_exit_code(tmp_path, capsys):
    code = main(
        ["run", "--config", str(tmp_path / "nope.yaml"), "--out", str(tmp_path / "o")]
    )
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error[config]:")


@pytest.mark.parametrize(
    "flags, message",
    [
        (["sweep-gamma", "--gamma", "inf"], "section 'expansion': 'gamma' must be a finite number, got inf"),
        (["sweep-gamma", "--gamma", "nan"], "section 'expansion': 'gamma' must be a finite number, got nan"),
        (
            ["run", "--seed", "99999999999999999999999"],
            "section 'world': 'seed' must be an integer, got 99999999999999999999999",
        ),
        (["run", "--seed", "-1"], "section 'world': seed must be non-negative, got -1"),
        (["pilot", "--seed", "-3"], "section 'world': seed must be non-negative, got -3"),
    ],
)
def test_flag_values_get_the_config_check(config_path, tmp_path, capsys, flags, message):
    """A flag value fails as the same value in a config file does, before
    the output directory is made."""
    out = tmp_path / "out"
    code = main([*flags, "--config", str(config_path), "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == f"error[config]: {message}\n"
    assert not out.exists()
