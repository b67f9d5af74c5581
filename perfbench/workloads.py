"""The three benchmark workloads: how each builds its inputs from the
benchmark seed, the `dipex` command lines of one round of operations, and
the checks an operation's output must pass.

Every input is a pure function of the benchmark seed.  The program only
sees the generated inputs (`--seed` flags or a set of COCO files), never
the benchmark seed itself.  Program seeds of different benchmark seeds do
not overlap, so two benchmark seeds never share a world.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks

# eval_merge input shape.  Each scene holds OBJECTS_PER_SCENE ground-truth
# boxes; every detection file carries DUPLICATES jittered copies of each of
# them, so soft-NMS sees DET_FILES * DUPLICATES * OBJECTS_PER_SCENE boxes per
# scene (320 here): the few-hundred-box regime where its quadratic cost shows.
EVAL_SCENES = 24
OBJECTS_PER_SCENE = 10
DET_FILES = 4
DUPLICATES = 8
SCENE_W, SCENE_H = 640, 480
GRID_COLS, GRID_ROWS = 4, 3
PILOT_SEEDS = 5
# A grow round runs two worlds: per-world cost differs by up to ~20% (label
# counts differ), and two worlds per run halve that share of the spread.
GROW_SEEDS = 2


@dataclass(frozen=True)
class Workload:
    name: str
    # (benchmark seed, input directory) -> the dipex CLI arguments, without
    # --out, of each operation in one round
    prepare: Callable[[int, Path], list[list[str]]]
    # (operation output directory, CLI arguments) -> ar100; raises CheckFailed
    check: Callable[[Path, list[str]], float]


def _grow_args(seed: int, _inputs: Path) -> list[list[str]]:
    return [["run", "--seed", str(s)] for s in range(GROW_SEEDS * seed, GROW_SEEDS * (seed + 1))]


def _pilot_args(seed: int, _inputs: Path) -> list[list[str]]:
    args = ["pilot"]
    for s in range(PILOT_SEEDS * seed, PILOT_SEEDS * (seed + 1)):
        args += ["--seed", str(s)]
    return [args]


def _eval_merge_args(seed: int, inputs: Path) -> list[list[str]]:
    gt, dets = write_eval_inputs(seed, inputs)
    args = ["eval", "--gt", str(gt), "--merge"]
    for path in dets:
        args += ["--dets", str(path)]
    return [args]


def scene_boxes(rng: random.Random) -> list[tuple[float, float, float, float]]:
    """OBJECTS_PER_SCENE non-overlapping (x, y, w, h) boxes, one per grid cell,
    with small, medium and large sizes equally likely."""
    cell = SCENE_W / GRID_COLS  # == SCENE_H / GRID_ROWS
    boxes = []
    for slot in rng.sample(range(GRID_COLS * GRID_ROWS), OBJECTS_PER_SCENE):
        lo, hi = rng.choice(((8.0, 32.0), (32.0, 96.0), (96.0, cell / math.sqrt(2.0) - 1.0)))
        side = rng.uniform(lo, hi)
        aspect = math.exp(rng.uniform(math.log(0.5), math.log(2.0)))
        w, h = side * math.sqrt(aspect), side / math.sqrt(aspect)
        x = (slot % GRID_COLS) * cell + rng.uniform(0.0, cell - w)
        y = (slot // GRID_COLS) * cell + rng.uniform(0.0, cell - h)
        boxes.append((x, y, w, h))
    return boxes


def jitter(rng: random.Random, box: tuple) -> list[float]:
    """A detection of `box`: centre shifted and sides rescaled by ~10%, clipped."""
    x, y, w, h = box
    cx = x + w / 2 + rng.gauss(0.0, 0.1 * w)
    cy = y + h / 2 + rng.gauss(0.0, 0.1 * h)
    w2 = w * math.exp(rng.gauss(0.0, 0.1))
    h2 = h * math.exp(rng.gauss(0.0, 0.1))
    x0 = min(max(cx - w2 / 2, 0.0), SCENE_W - 1.0)
    y0 = min(max(cy - h2 / 2, 0.0), SCENE_H - 1.0)
    x1 = min(max(cx + w2 / 2, x0 + 1.0), float(SCENE_W))
    y1 = min(max(cy + h2 / 2, y0 + 1.0), float(SCENE_H))
    return [x0, y0, x1 - x0, y1 - y0]


def write_eval_inputs(
    seed: int, dest: Path, num_scenes: int = EVAL_SCENES, det_files: int = DET_FILES
) -> tuple[Path, list[Path]]:
    """COCO ground truth plus `det_files` detection files, all from `seed`.

    Each detection file holds DUPLICATES jittered copies of every object,
    with scores uniform in [0.05, 0.95].
    """
    rng = random.Random(f"eval_merge:{seed}")
    images, annotations = [], []
    boxes_by_scene = []
    for sid in range(1, num_scenes + 1):
        images.append({"id": sid, "width": SCENE_W, "height": SCENE_H})
        boxes = scene_boxes(rng)
        boxes_by_scene.append((sid, boxes))
        for x, y, w, h in boxes:
            annotations.append(
                {"id": len(annotations) + 1, "image_id": sid, "category_id": 1,
                 "bbox": [x, y, w, h], "area": w * h, "iscrowd": 0}
            )
    dest.mkdir(parents=True, exist_ok=True)
    gt_path = dest / "ground_truth.json"
    gt_path.write_text(json.dumps(
        {"images": images, "annotations": annotations, "categories": [{"id": 1, "name": "object"}]}
    ))
    det_paths = []
    for f in range(det_files):
        records = [
            {"image_id": sid, "category_id": 1, "bbox": jitter(rng, box),
             "score": rng.uniform(0.05, 0.95)}
            for sid, boxes in boxes_by_scene
            for box in boxes
            for _ in range(DUPLICATES)
        ]
        path = dest / f"detections_{f}.json"
        path.write_text(json.dumps(records))
        det_paths.append(path)
    return gt_path, det_paths


def _check_grow(out: Path, _args: list[str]) -> float:
    checks.manifest_matches_disk(out)
    summary = checks.load_json(out / "summary.json")
    checks.rescore_matches(
        summary["metrics"], out / "ground_truth.json", [out / "detections.json"], merge=False
    )
    checks.tree_shape(out, summary)
    return checks.recall_grows(out, summary)


def _check_pilot(out: Path, args: list[str]) -> float:
    checks.manifest_matches_disk(out)
    seeds = [int(v) for flag, v in zip(args, args[1:]) if flag == "--seed"]
    return checks.pilot_contrast(out / "pilot.csv", seeds)


def _check_eval_merge(out: Path, args: list[str]) -> float:
    # `dipex eval` writes no manifest.json; run.py still compares every
    # output file of every operation with the first.
    gt = Path(args[args.index("--gt") + 1])
    dets = [Path(v) for flag, v in zip(args, args[1:]) if flag == "--dets"]
    summary = checks.load_json(out / "summary.json")
    checks.rescore_matches(summary, gt, dets, merge=True)
    return float(summary["ar"]["100"])


WORKLOADS = {
    w.name: w
    for w in (
        Workload("grow", _grow_args, _check_grow),
        Workload("pilot", _pilot_args, _check_pilot),
        Workload("eval_merge", _eval_merge_args, _check_eval_merge),
    )
}
