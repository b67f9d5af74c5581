"""Output checks made apart from the program.

Scores are recomputed with the repository's independent scorer
(`tests/reference_eval.py`); merged detections are first suppressed by the
soft-NMS below, written here against numpy rather than reusing
`dipex.pseudo_labels`.  Everything else checks properties the method must
have.  Nothing is compared with a stored copy of earlier output.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import importlib.util
import json
import math
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
TOLERANCE = 1e-9
NMS_SIGMA = 0.5  # `dipex eval --merge` defaults
NMS_FLOOR = 0.001


class CheckFailed(AssertionError):
    """An operation's output is wrong."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


@functools.cache
def _reference_module():
    spec = importlib.util.spec_from_file_location(
        "reference_eval", ROOT / "tests" / "reference_eval.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_json(path: Path):
    with open(path) as fh:
        return json.load(fh)


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def output_digests(out: Path) -> dict[str, str]:
    """sha256 of every file an operation wrote."""
    return {p.name: sha256(p) for p in sorted(out.iterdir()) if p.is_file()}


def manifest_matches_disk(out: Path) -> None:
    manifest = load_json(out / "manifest.json")
    listed = manifest["artifacts"]
    on_disk = {n: d for n, d in output_digests(out).items() if n != "manifest.json"}
    _require(
        set(listed) == set(on_disk),
        f"{out.name}: manifest lists {sorted(set(listed) ^ set(on_disk))} differently from disk",
    )
    for name, digest in on_disk.items():
        _require(listed[name] == digest, f"{out.name}: manifest sha256 of {name} is stale")


def _xyxy(bbox) -> tuple[float, float, float, float]:
    x, y, w, h = (float(v) for v in bbox)
    return (x, y, x + w, y + h)


def soft_nms(boxes: np.ndarray, scores: np.ndarray, sigma: float, floor: float):
    """Gaussian soft-NMS over a full IoU matrix.

    Selects the highest running score (ties to the lowest index), multiplies
    every other live score by exp(-IoU^2 / sigma) and drops those under
    `floor`.  Returns (indices, final scores) in selection order.
    """
    x0, y0, x1, y1 = boxes.T
    iw = np.minimum(x1[:, None], x1[None, :]) - np.maximum(x0[:, None], x0[None, :])
    ih = np.minimum(y1[:, None], y1[None, :]) - np.maximum(y0[:, None], y0[None, :])
    inter = np.where((iw > 0.0) & (ih > 0.0), iw * ih, 0.0)
    area = (x1 - x0) * (y1 - y0)
    union = area[:, None] + area[None, :] - inter
    ious = np.where(union > 0.0, inter / np.where(union > 0.0, union, 1.0), 0.0)
    running = scores.astype(float).copy()
    live = np.arange(len(scores))
    picked, final = [], []
    while live.size:
        pos = int(np.argmax(running[live]))
        best = live[pos]
        picked.append(int(best))
        final.append(float(running[best]))
        live = np.delete(live, pos)
        running[live] *= np.exp(-ious[best, live] ** 2 / sigma)
        live = live[running[live] >= floor]
    return picked, final


def _merged_detections(det_paths: list[Path]) -> dict[int, list[tuple]]:
    """Union of the files per scene, suppressed as `eval --merge` specifies."""
    union: dict[int, list[tuple]] = {}
    for path in det_paths:
        for rec in load_json(path):
            union.setdefault(int(rec["image_id"]), []).append(
                (*_xyxy(rec["bbox"]), float(rec["score"]))
            )
    merged = {}
    for sid, rows in union.items():
        rows.sort(key=lambda r: (-r[4], r[:4]))
        arr = np.array(rows, dtype=float)
        picked, final = soft_nms(arr[:, :4], arr[:, 4], NMS_SIGMA, NMS_FLOOR)
        merged[sid] = [(*rows[i][:4], s) for i, s in zip(picked, final)]
    return merged


def rescore_matches(summary: dict, gt_path: Path, det_paths: list[Path], merge: bool) -> None:
    """The program's AR and AP equal the reference scorer's to TOLERANCE."""
    gt = load_json(gt_path)
    scene_ids = [int(img["id"]) for img in gt["images"]]
    ground_truth: dict[int, list[tuple]] = {sid: [] for sid in scene_ids}
    for ann in gt["annotations"]:
        box = _xyxy(ann["bbox"])
        area = float(ann.get("area", (box[2] - box[0]) * (box[3] - box[1])))
        ground_truth[int(ann["image_id"])].append((*box, area, bool(ann.get("iscrowd", 0))))
    if merge:
        detections = _merged_detections(det_paths)
    else:
        detections = {}
        for path in det_paths:
            for rec in load_json(path):
                detections.setdefault(int(rec["image_id"]), []).append(
                    (*_xyxy(rec["bbox"]), float(rec["score"]))
                )
    ref = _reference_module().reference_evaluate(detections, ground_truth, scene_ids)
    pairs = [(f"ar@{cap}", summary["ar"][str(cap)], ref["ar_at"][cap]) for cap in (1, 10, 100)]
    pairs += [(key, summary[key], ref[key]) for key in
              ("ap", "ar_small", "ar_medium", "ar_large", "ap_small", "ap_medium", "ap_large")]
    for key, got, want in pairs:
        same = (got is None and want is None) or (
            got is not None and want is not None and abs(got - want) <= TOLERANCE
        )
        _require(same, f"{key}: program {got} vs reference {want}")


def tree_shape(out: Path, summary: dict) -> None:
    """Unit-norm prompts, 1 + (rounds - 1) * num_children of them, frozen parents."""
    nodes = {n["id"]: n for n in load_json(out / "tree.json")["nodes"]}
    for nid, node in nodes.items():
        norm = math.sqrt(sum(x * x for x in node["embedding"]))
        _require(abs(norm - 1.0) <= TOLERANCE, f"prompt {nid} has norm {norm}")
    k = load_json(out / "manifest.json")["config"]["expansion"]["num_children"]
    expected = 1 + (summary["rounds_trained"] - 1) * k
    _require(
        len(nodes) == expected == summary["num_prompts"],
        f"{len(nodes)} prompts after {summary['rounds_trained']} rounds of {k} children",
    )
    for nid, node in nodes.items():
        parent = node["parent_id"]
        if parent is not None:
            _require(nodes[parent]["frozen"], f"parent {parent} of prompt {nid} is not frozen")


def recall_grows(out: Path, summary: dict) -> float:
    """AR@1 <= AR@10 <= AR@100, and growth beats round 1.  Returns AR@100."""
    ar = summary["metrics"]["ar"]
    _require(ar["1"] <= ar["10"] <= ar["100"], f"recall falls as the cap rises: {ar}")
    with open(out / "rounds.csv", newline="") as fh:
        first = next(csv.DictReader(fh))
    _require(
        ar["100"] > float(first["ar_100"]),
        f"final AR@100 {ar['100']} does not beat round 1's {first['ar_100']}",
    )
    return float(ar["100"])


def pilot_contrast(path: Path, seeds: list[int]) -> float:
    """Penalty 1 only on dispersed rows; query merging hurts overlapping rows
    more than the dispersed row of the same seed.  Returns mean AR@100 (PM)."""
    with open(path, newline="") as fh:
        rows = {(r["vocabulary"], int(r["seed"])): r for r in csv.DictReader(fh)}
    _require(
        set(rows) == {(v, s) for v in ("dispersed", "overlapping") for s in seeds},
        f"pilot rows {sorted(rows)} do not cover seeds {seeds}",
    )
    for seed in seeds:
        disp, over = rows["dispersed", seed], rows["overlapping", seed]
        _require(float(disp["overlap_penalty"]) == 1.0, f"seed {seed}: dispersed penalty {disp['overlap_penalty']}")
        _require(float(over["overlap_penalty"]) < 1.0, f"seed {seed}: overlapping penalty {over['overlap_penalty']}")
        _require(
            float(over["delta_ar_pct"]) < float(disp["delta_ar_pct"]),
            f"seed {seed}: query merging loses {over['delta_ar_pct']}% on overlapping"
            f" vs {disp['delta_ar_pct']}% on dispersed",
        )
    return sum(float(r["ar_100_pm"]) for r in rows.values()) / len(rows)
