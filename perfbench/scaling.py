"""Reference scaling figures for three kernels, timed in process.

    PYTHONPATH=src python3 perfbench/scaling.py

- `pseudo_labels.soft_nms` against box count: one scene of jittered
  duplicates, built as the eval_merge workload builds them.
- `evaluation.evaluate` against scene count: eval_merge ground truth with
  one detection file, 80 detections per scene.
- `detector.detect_world` against prompt count, in both query modes, on the
  default 80-scene world with object embeddings from every cluster as prompts.

Each figure is the median of three timings, except evaluate's single one.
These are reference figures for the README, not benchmark metrics.
"""

from __future__ import annotations

import random
import shutil
import statistics
import sys
import time
from pathlib import Path

import workloads

WORK = Path(__file__).resolve().parent.parent / ".bench_work" / "scaling"


def _median_time(fn, repeats: int = 3) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def soft_nms_rows(counts=(100, 400, 1600)):
    from dipex.boxes import BBox
    from dipex.evaluation import DetectionRecord
    from dipex.pseudo_labels import soft_nms

    rows = []
    for n in counts:
        rng = random.Random(f"scaling:{n}")
        objects = workloads.scene_boxes(rng)
        dets = [
            DetectionRecord(1, BBox.from_xywh(*workloads.jitter(rng, objects[i % len(objects)])),
                            rng.uniform(0.05, 0.95))
            for i in range(n)
        ]
        dets.sort(key=lambda d: (-d.score, d.bbox.as_tuple()))
        rows.append(("pseudo_labels.soft_nms", f"{n} boxes", _median_time(lambda: soft_nms(dets))))
    return rows


def evaluate_rows(scene_counts=(80, 800)):
    from dipex.evaluation import evaluate, load_coco_detections, load_coco_ground_truth

    rows = []
    for scenes in scene_counts:
        gt_path, (det_path,) = workloads.write_eval_inputs(0, WORK / f"eval_{scenes}", scenes, det_files=1)
        gts, dets = load_coco_ground_truth(gt_path), load_coco_detections(det_path)
        rows.append(("evaluation.evaluate", f"{scenes} scenes", _median_time(lambda: evaluate(dets, gts), 1)))
    return rows


def detect_world_rows(prompt_counts=(1, 10, 28, 82)):
    from dipex.detector import DetectorParams, QueryMode, detect_world
    from dipex.world import WorldConfig, generate_world

    world = generate_world(WorldConfig())
    rows = []
    for mode in QueryMode:
        for n in prompt_counts:
            prompts = [(i, world.objects[i * 37 % len(world.objects)].embedding) for i in range(n)]
            elapsed = _median_time(lambda: detect_world(world, prompts, mode, DetectorParams()))
            rows.append(("detector.detect_world", f"{n} prompts, {mode.value}", elapsed))
    return rows


def main() -> int:
    for kernel, size, seconds in soft_nms_rows() + evaluate_rows() + detect_world_rows():
        print(f"{kernel:24s} {size:34s} {seconds:8.3f} s")
    shutil.rmtree(WORK)
    return 0


if __name__ == "__main__":
    sys.exit(main())
