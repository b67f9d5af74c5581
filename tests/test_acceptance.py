"""Acceptance checks for the whole pipeline, one printed verdict per check.

Run with ``python3 -m pytest tests/test_acceptance.py -v``.  Each test prints
one ``[PASS]``/``[FAIL]`` line (outside pytest's capture, so the lines show
up even on quiet runs) and then asserts.  The heavier checks share five
default-configuration growth runs through a module fixture so the wall-clock
budgets hold on a laptop-class machine.
"""

import hashlib
import json
import math
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from dipex.boxes import BBox
from dipex.cli import main as cli_main
from dipex.detection_losses import giou, sigmoid_focal_loss
from dipex.detector import DetectorParams, VocabularyConfig, build_vocabulary
from dipex.dispersion import child_child_loss, parent_child_loss
from dipex.evaluation import evaluate
from dipex.expansion import (
    ExpansionConfig,
    PromptTree,
    activation_frequency,
    bootstrap_labels,
    expand,
    rebuild_labels,
    select_parent,
    train_round,
)
from dipex.experiments import ExperimentConfig, run_dipex, run_pilot_merging, with_seed
from dipex.geometry import GivensRotation, apply_rotation, mac, normalize
from dipex.pseudo_labels import soft_nms
from dipex.world import WorldConfig, generate_world

from conftest import assert_matches_reference, det_arrays, gt_arrays, random_eval_instance
from reference_detector import PseudoLabel
from reference_eval import reference_evaluate

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _verdict(capsys, num, desc, ok):
    with capsys.disabled():
        print(f"[{'PASS' if ok else 'FAIL'}] check {num:02d}: {desc}")
    assert ok, f"check {num:02d} failed: {desc}"


@pytest.fixture(scope="module")
def default_runs(tmp_path_factory):
    """Five full growth runs at default settings, seeds 0..4, as
    ``dipex run --seed S`` writes them: results, timing and output dirs."""
    results, outs = [], []
    root = tmp_path_factory.mktemp("default_runs")
    start = time.perf_counter()
    for seed in range(5):
        out, result = run_dipex(with_seed(ExperimentConfig(), seed), root / f"run{seed}")
        results.append(result)
        outs.append(out)
    elapsed = time.perf_counter() - start
    return results, elapsed, outs


def _dense_rotation(dim, rot):
    m = np.eye(dim)
    c, s = math.cos(rot.angle), math.sin(rot.angle)
    m[rot.axis_i, rot.axis_i] = c
    m[rot.axis_j, rot.axis_j] = c
    m[rot.axis_i, rot.axis_j] = -s
    m[rot.axis_j, rot.axis_i] = s
    return m


def test_01_plane_rotations_match_dense_matrices(capsys):
    start = time.perf_counter()
    rng = np.random.default_rng(11)
    worst = 0.0
    for dim in (3, 64):
        eye = np.eye(dim)
        for _ in range(1000):
            v = rng.normal(size=dim)
            i, j = (int(a) for a in rng.choice(dim, size=2, replace=False))
            rot = GivensRotation(i, j, float(rng.uniform(-math.pi, math.pi)))
            m = _dense_rotation(dim, rot)
            out = apply_rotation(v, rot)
            worst = max(
                worst,
                float(np.max(np.abs(out - v @ m))),
                float(np.max(np.abs(m.T @ m - eye))),
                abs(float(np.linalg.norm(out)) - float(np.linalg.norm(v))),
            )
    elapsed = time.perf_counter() - start
    _verdict(
        capsys, 1,
        f"rotations match dense matrices (worst {worst:.2e}, {elapsed:.1f}s)",
        worst < 1e-9 and elapsed < 5.0,
    )


def _fd_at(fn, x, idx, h=1e-5):
    xf = x.reshape(-1)
    orig = xf[idx]
    xf[idx] = orig + h
    hi = fn()
    xf[idx] = orig - h
    lo = fn()
    xf[idx] = orig
    return (hi - lo) / (2.0 * h)


def test_02_analytic_gradients_match_finite_differences(capsys):
    start = time.perf_counter()
    rng = np.random.default_rng(22)
    num_children, dim = 9, 64
    coords_per_config = 128
    worst = {"parent_child": 0.0, "child_child": 0.0, "focal": 0.0}
    for _ in range(200):
        children = rng.normal(size=(num_children, dim)) * rng.uniform(0.5, 2.0)
        parent = rng.normal(size=dim)
        tau = float(rng.uniform(0.05, 1.0))
        picks = rng.choice(children.size, size=coords_per_config, replace=False)

        _, grad = parent_child_loss(children, parent, tau)
        scale = max(float(np.max(np.abs(grad))), 1e-12)
        fn = lambda: parent_child_loss(children, parent, tau)[0]
        for idx in picks:
            err = abs(grad.reshape(-1)[idx] - _fd_at(fn, children, idx)) / scale
            worst["parent_child"] = max(worst["parent_child"], err)

        _, grad = child_child_loss(children, tau)
        scale = max(float(np.max(np.abs(grad))), 1e-12)
        fn = lambda: child_child_loss(children, tau)[0]
        for idx in picks:
            err = abs(grad.reshape(-1)[idx] - _fd_at(fn, children, idx)) / scale
            worst["child_child"] = max(worst["child_child"], err)

        logits = rng.uniform(-6.0, 6.0, size=16)
        targets = (rng.random(16) < 0.5).astype(float)
        loss_hi, _ = sigmoid_focal_loss(logits + 1e-5, targets)
        loss_lo, _ = sigmoid_focal_loss(logits - 1e-5, targets)
        _, dloss = sigmoid_focal_loss(logits, targets)
        fd = (loss_hi - loss_lo) / 2e-5
        scale = max(float(np.max(np.abs(dloss))), 1e-12)
        worst["focal"] = max(worst["focal"], float(np.max(np.abs(dloss - fd))) / scale)
    elapsed = time.perf_counter() - start
    bad = {k: v for k, v in worst.items() if v >= 1e-4}
    _verdict(
        capsys, 2,
        "gradients match central differences "
        f"(worst {max(worst.values()):.2e}, {elapsed:.1f}s)",
        not bad and elapsed < 10.0,
    )


def test_03_closed_form_values(capsys):
    e1 = np.zeros(8)
    e1[0] = 1.0
    e2 = np.zeros(8)
    e2[1] = 1.0
    checks = [
        (parent_child_loss(e1[None, :], e1, 0.1)[0], -10.0),
        (parent_child_loss(e2[None, :], e1, 0.1)[0], 0.0),
        (child_child_loss(np.stack([e1, e1]), 0.1)[0], 10.0),
        (child_child_loss(np.stack([e1, e2]), 0.1)[0], 0.0),
        (giou(BBox(0, 0, 1, 1), BBox(2, 2, 3, 3)), -7.0 / 9.0),
        (sigmoid_focal_loss(0.0, 1)[0], 0.25 * 0.25 * math.log(2.0)),
    ]
    pair = [
        PseudoLabel(0, BBox(0, 0, 10, 10), 1.0, "a"),
        PseudoLabel(0, BBox(0, 0, 10, 10), 0.8, "b"),
    ]
    checks.append((soft_nms(pair, sigma=0.5)[1].score, 0.8 * math.exp(-2.0)))
    worst = max(abs(got - want) for got, want in checks)
    _verdict(
        capsys, 3,
        f"closed-form loss and suppression values (worst {worst:.2e})",
        worst < 1e-9,
    )


def test_04_max_angular_coverage(capsys, default_runs):
    results, run_elapsed, _ = default_runs
    start = time.perf_counter()
    rng = np.random.default_rng(44)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 21))
        dim = int(rng.choice([3, 16, 64]))
        vecs = rng.normal(size=(n, dim))
        units = vecs / np.linalg.norm(vecs, axis=1, keepdims=True)
        brute = 0.0
        for a in range(n):
            for b in range(a + 1, n):
                dot = min(1.0, max(-1.0, float(units[a] @ units[b])))
                brute = max(brute, math.acos(dot))
        worst = max(worst, abs(mac(vecs) - brute))
    monotone = all(
        not any(b < a - 1e-12 for a, b in zip(r.mac_report.alpha_max, r.mac_report.alpha_max[1:]))
        for r in results
    )
    elapsed = run_elapsed + (time.perf_counter() - start)
    _verdict(
        capsys, 4,
        f"coverage equals brute force and never shrinks (worst {worst:.2e}, {elapsed:.0f}s)",
        worst < 1e-9 and monotone and elapsed < 120.0,
    )


# Final AR@1, AR@10, AR@100, AP, per-round label counts and final MAC (radians)
# of the five default runs, seeds 0..4.  A change that moves any of these
# changes what the method computes and has to say so.
PINNED_DEFAULT_RUNS = {
    0: (
        0.24625, 0.9246874999999999, 0.9246874999999999, 0.9212763766951797,
        [320, 222, 311, 320], 0.9602585918724503,
    ),
    1: (
        0.2496875, 0.9518749999999999, 0.9518749999999999, 0.9508427539340106,
        [320, 207, 306, 320], 0.9008410947021258,
    ),
    2: (
        0.2453125, 0.9015624999999998, 0.9015624999999998, 0.8980939711421179,
        [320, 179, 260, 320], 0.8418185541890101,
    ),
    3: (
        0.24906250000000002, 0.9459375000000001, 0.9459375000000001, 0.944788022243466,
        [320, 184, 303, 320], 0.9126006416783834,
    ),
    4: (
        0.24937499999999999, 0.9546875, 0.9546875, 0.9532631273817562,
        [320, 248, 318, 320], 0.9168199752865646,
    ),
}


def test_default_runs_match_pinned_metrics(default_runs):
    results, _, _ = default_runs
    for seed, result in enumerate(results):
        final = result.eval_summaries[-1]
        got = (
            final.ar_at[1],
            final.ar_at[10],
            final.ar_at[100],
            final.ap,
            list(result.label_counts),
            result.mac_report.alpha_max[-1],
        )
        assert got == PINNED_DEFAULT_RUNS[seed], seed


# sha256 of manifest.json, which hashes every other artifact, for
# `dipex run --seed S` (S = 0, 1, 2), `dipex pilot --seed 0 ... --seed 4` and
# `dipex eval` with and without --merge on the two-scene benchmark inputs of
# seed 0.  Float drift in any kernel shows up here, not only as a
# rerun-versus-rerun pass in check 08.
PINNED_MANIFESTS = {
    "run0": "e791c9201cc7e990f73ed00cd962a51a9d68f858d4e1dd9600d62439251b768e",
    "run1": "9ade0a570e1624c39035b5d672c6ec9fb642ca13fb485a340eace2fff9ed248d",
    "run2": "1ac3ee3b634c98ff03808462c15afedd40bfb91dd469ce3e4bf97f66d5c91b04",
    "pilot": "e13966afb5457b051a93668eed4b7a9cc83abf4b20358faaaa82c43f80ac2213",
    "eval_merge": "14e94d0b9f234b18887b77bf3888e9f44cd45102c7694af47a64cdfabfc3c98e",
    "eval": "97707ec886410cae927366f66cfa3d98c1ff8422cafc260dc82256038b7ba082",
}


def _manifest_sha256(out):
    """sha256 of out/manifest.json, after checking that it lists exactly the
    files on disk with their hashes."""
    manifest = json.loads((out / "manifest.json").read_text())
    on_disk = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in out.iterdir()
        if p.name != "manifest.json"
    }
    assert manifest["artifacts"] == on_disk, out
    return hashlib.sha256((out / "manifest.json").read_bytes()).hexdigest()


def test_default_artifacts_match_pinned_sha256(default_runs, tmp_path, capsys):
    _, _, outs = default_runs
    got = {f"run{seed}": _manifest_sha256(outs[seed]) for seed in range(3)}
    pilot = ["pilot"] + [arg for seed in range(5) for arg in ("--seed", str(seed))]
    assert cli_main(pilot + ["--out", str(tmp_path / "pilot")]) == 0
    got["pilot"] = _manifest_sha256(tmp_path / "pilot")
    sys.path.insert(0, str(PERFBENCH))
    try:
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
    gt, dets = workloads.write_eval_inputs(0, tmp_path / "inputs", num_scenes=2, det_files=2)
    for name, flags in (("eval_merge", ["--merge"]), ("eval", [])):
        args = ["eval", "--gt", str(gt), *flags]
        for path in dets:
            args += ["--dets", str(path)]
        assert cli_main(args + ["--out", str(tmp_path / name)]) == 0
        got[name] = _manifest_sha256(tmp_path / name)
    capsys.readouterr()
    assert got == PINNED_MANIFESTS


def test_05_evaluator_matches_independent_reference(capsys):
    rng = np.random.default_rng(55)
    mismatches = 0
    for _ in range(50):
        dets, gts, scene_ids = random_eval_instance(rng, max_scenes=5, max_boxes=8)
        try:
            assert_matches_reference(
                evaluate(det_arrays(dets), gt_arrays(gts, scene_ids)),
                reference_evaluate(dets, gts, scene_ids),
            )
        except AssertionError:
            mismatches += 1
    perfect_exact = True
    for trial in range(10):
        prng = np.random.default_rng(5500 + trial)
        gts = {}
        dets = {}
        for sid in range(int(prng.integers(1, 4))):
            rows = []
            drows = []
            for k in range(int(prng.integers(1, 6))):
                side = float(prng.uniform(5.0, 200.0))
                x = float(prng.uniform(0.0, 640.0 - side))
                y = float(prng.uniform(0.0, 480.0 - side))
                rows.append((x, y, x + side, y + side, side * side, False))
                drows.append((x, y, x + side, y + side, 1.0 - 0.01 * k))
            gts[sid] = rows
            dets[sid] = drows
        summary = evaluate(det_arrays(dets), gt_arrays(gts, sorted(gts)))
        perfect_exact &= summary.ar_at[100] == 1.0 and summary.ap == 1.0
    _verdict(
        capsys, 5,
        f"scoring matches the reference on 50 random problems ({mismatches} mismatches)"
        " and perfect detections score exactly 1",
        mismatches == 0 and perfect_exact,
    )


def test_06_prediction_merging_protects_overlapping_vocabularies(capsys, tmp_path):
    start = time.perf_counter()
    out = run_pilot_merging(ExperimentConfig(), list(range(5)), tmp_path / "pilot")
    elapsed = time.perf_counter() - start
    lines = (out / "pilot.csv").read_text().strip().split("\n")
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    overlap_wins = 0
    dispersed_close = True
    for row in rows:
        pm, qm = float(row["ar_100_pm"]), float(row["ar_100_qm"])
        if row["vocabulary"] == "overlapping":
            overlap_wins += qm < pm
        else:
            dispersed_close &= abs(qm - pm) < 0.02
    _verdict(
        capsys, 6,
        f"merging modes: overlapping vocab worse under query merging {overlap_wins}/5,"
        f" dispersed within 2 points ({elapsed:.0f}s)",
        overlap_wins == 5 and dispersed_close and elapsed < 300.0,
    )


def test_07_growth_beats_single_prompt_baseline(capsys, default_runs):
    results, elapsed, _ = default_runs
    gains = [
        r.eval_summaries[-1].ar_at[100] - r.eval_summaries[0].ar_at[100]
        for r in results
    ]
    wins = sum(g >= 0.05 for g in gains)
    _verdict(
        capsys, 7,
        f"recall gain over round-1 baseline >= 5 points in {wins}/5 seeds "
        f"(min gain {min(gains):+.3f}, {elapsed / 5:.1f}s/seed)",
        wins >= 4 and elapsed / 5 < 600.0,
    )


def test_08_identical_runs_write_identical_artifacts(capsys, tmp_path):
    config = ExperimentConfig()
    out_a, _ = run_dipex(config, tmp_path / "a")
    out_b, _ = run_dipex(config, tmp_path / "b")
    names = sorted(p.name for p in out_a.iterdir())
    same_names = names == sorted(p.name for p in out_b.iterdir())
    diffs = [n for n in names if (out_a / n).read_bytes() != (out_b / n).read_bytes()]
    _verdict(
        capsys, 8,
        f"repeated runs byte-identical across {len(names)} artifacts"
        + (f" (differ: {diffs})" if diffs else ""),
        same_names and not diffs,
    )


def test_09_tree_growth_and_freezing_discipline(capsys):
    world = generate_world(WorldConfig())
    config = ExpansionConfig(early_stop=False)
    params = DetectorParams()
    vocabulary = build_vocabulary(world, VocabularyConfig(seed=config.seed))
    rng = np.random.default_rng(config.seed)

    tree = PromptTree.from_root(normalize(np.sum(np.stack(vocabulary), axis=0)))
    labels = bootstrap_labels(vocabulary, world, config, params)
    norm_errors = list(train_round(tree, labels, world, config, params, rng).epoch_norm_error)
    frozen_bytes = {}
    frozen_ok = True
    for _ in range(config.num_expansions):
        stats = activation_frequency(
            tree, labels, world, params, config.label_iou_min, config.seed
        )
        candidates = list(tree.cohort) if tree.cohort else tree.trainable_ids
        expand(tree, select_parent(stats, candidates), config, rng)
        for nid in tree.frozen_ids:
            frozen_bytes.setdefault(nid, tree.nodes[nid].embedding.tobytes())
        labels = rebuild_labels(tree, world, config, params)
        norm_errors.extend(
            train_round(tree, labels, world, config, params, rng).epoch_norm_error
        )
        for nid, blob in frozen_bytes.items():
            frozen_ok &= tree.nodes[nid].embedding.tobytes() == blob

    expected_nodes = 1 + config.num_expansions * config.num_children
    worst_norm = max(norm_errors)
    _verdict(
        capsys, 9,
        f"{len(tree.nodes)} prompts grown, frozen rows untouched, "
        f"worst unit-norm error {worst_norm:.2e}",
        len(tree.nodes) == expected_nodes == 28
        and frozen_ok
        and worst_norm < 1e-9,
    )


def test_10_eval_subcommand_round_trip(capsys, tmp_path):
    gt_doc = {
        "images": [{"id": 1, "width": 100, "height": 100}],
        "annotations": [
            {"id": 1, "image_id": 1, "bbox": [10.0, 10.0, 40.0, 40.0]},
            {"id": 2, "image_id": 1, "bbox": [60.0, 10.0, 30.0, 30.0]},
        ],
        "categories": [{"id": 1, "name": "object"}],
    }
    dets_doc = [
        {"image_id": 1, "category_id": 1, "bbox": [10.0, 10.0, 40.0, 40.0], "score": 0.9},
        {"image_id": 1, "category_id": 1, "bbox": [60.0, 10.0, 22.0, 30.0], "score": 0.8},
    ]
    gt_path = tmp_path / "gt.json"
    det_path = tmp_path / "dets.json"
    gt_path.write_text(json.dumps(gt_doc))
    det_path.write_text(json.dumps(dets_doc))
    out = tmp_path / "eval"
    code = cli_main(
        ["eval", "--gt", str(gt_path), "--dets", str(det_path), "--out", str(out)]
    )
    captured = capsys.readouterr()
    summary = json.loads((out / "summary.json").read_text())

    # Second detection overlaps its 30x30 target at IoU 660/900 = 0.7333, a
    # hit at the five thresholds up to 0.70 and a miss above, hence by hand:
    # AR@1 = 0.5 (cap keeps the exact match only), AR@10 = AR@100 = 0.75,
    # AP = (5 * 1 + 5 * 51/101) / 10, and the small/medium splits below.
    expected = {
        ("ar", "1"): 0.5,
        ("ar", "10"): 0.75,
        ("ar", "100"): 0.75,
        ("ap",): (5 + 5 * 51 / 101) / 10,
        ("ar_small",): 0.5,
        ("ap_small",): 0.5,
        ("ar_medium",): 1.0,
        ("ap_medium",): 1.0,
    }
    worst = 0.0
    for keys, want in expected.items():
        got = summary
        for key in keys:
            got = got[key]
        worst = max(worst, abs(got - want))
    nones_ok = summary["ar_large"] is None and summary["ap_large"] is None

    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    bad_code = cli_main(
        ["eval", "--gt", str(gt_path), "--dets", str(broken), "--out", str(tmp_path / "e2")]
    )
    err = capsys.readouterr().err
    _verdict(
        capsys, 10,
        f"eval subcommand reproduces hand-computed metrics (worst {worst:.2e})"
        " and rejects malformed JSON with exit 3",
        code == 0
        and "ar_100: 0.7500" in captured.out
        and worst < 1e-9
        and nones_ok
        and bad_code == 3
        and err.startswith("error[data]:"),
    )
