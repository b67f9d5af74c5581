"""The benchmark's traced run (perfbench/tracing.py) on one small command per
workload: every name it wraps must still exist, and every per-layer metric
the workload requires must read non-zero.  A refactor that drops or stops
calling a traced name fails here rather than in a benchmark run.  The work
counts of `run --seed 0` are pinned, so a tally that silently counts
something else (say, once `len()` reads a record instead of a list) fails
too."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
PINNED_COUNTS = {
    "grow": {
        "pseudo_labels.build_pseudo_labels.candidates_in": 14317,
        "pseudo_labels.build_pseudo_labels.labels_out": 1493,
        "pseudo_labels.soft_nms.boxes_in": 20377,
        "pseudo_labels.soft_nms.boxes_kept": 16944,
        "expansion.labels_assigned": 1173,
        "detector.detections": 1085,
    },
}


@pytest.fixture(scope="module")
def perfbench():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import tracing
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
    return tracing, workloads


def _eval_merge_args(workloads, inputs):
    gt, dets = workloads.write_eval_inputs(0, inputs, num_scenes=2, det_files=2)
    args = ["eval", "--gt", str(gt), "--merge"]
    for path in dets:
        args += ["--dets", str(path)]
    return args


@pytest.mark.parametrize("workload", ["grow", "pilot", "eval_merge"])
def test_traced_workload_counts_every_required_layer(workload, perfbench, tmp_path):
    tracing, workloads = perfbench
    args = {
        "grow": lambda: ["run", "--seed", "0"],
        "pilot": lambda: ["pilot", "--seed", "0"],
        "eval_merge": lambda: _eval_merge_args(workloads, tmp_path / "inputs"),
    }[workload]()
    metrics_file = tmp_path / "metrics.json"
    path = [str(ROOT / "src")] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "tracing.py"), "--metrics", str(metrics_file), "--",
         *args, "--out", str(tmp_path / "out")],
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(metrics_file.read_text())
    zero = [name for name, _, required in tracing.PER_LAYER if workload in required and not metrics[name]]
    assert zero == []
    pinned = PINNED_COUNTS.get(workload, {})
    assert {name: metrics[name] for name in pinned} == pinned
