"""Experiment drivers: seeded, file-writing wrappers around the library.

Each runner populates an output directory with CSV/JSON artifacts plus a
manifest recording the full configuration and a sha256 per artifact it wrote.
Nothing written here depends on wall-clock time or filesystem ordering, so
rerunning with the same configuration reproduces every byte.
"""

from __future__ import annotations

import csv
import hashlib
import importlib
import json
import math
from collections import namedtuple
from dataclasses import astuple, fields, replace
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from .config import (  # noqa: F401  (ConfigError, ExperimentConfig and the loaders are re-exported)
    ConfigError,
    DetectorParams,
    ExperimentConfig,
    checked_max_dets,
    experiment_config_from_dict,
    load_experiment_config,
    with_seed,
    with_settings,
)
from .evaluation import (
    DEFAULT_MAX_DETS,
    EvalSummary,
    GroundTruthSet,
    evaluate,
    load_coco_detections,
    load_coco_ground_truth,
)
from .pseudo_labels import ScoredBoxes, soft_nms

if TYPE_CHECKING:
    from .expansion import RunResult
    from .world import World

# The growth stages the drivers call.  Each is taken from the package's
# export table, which names its module, and bound here on first use, so that
# `dipex eval` imports none of the growth modules and `dipex pilot` never
# imports `expansion`.  perfbench/tracing.py and tests replace them here by
# name (getattr, then setattr), and a driver keeps a name already bound.
# Once the benchmark reads the program's own trace (ROADMAP direction 1),
# these become plain local imports.
_STAGES = ("run", "rebuild_labels", "detect_world", "build_vocabulary", "generate_world")


def __getattr__(name: str):
    if name not in _STAGES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(__package__), name)
    globals()[name] = value
    return value


def _bind(*names: str) -> None:
    """Bind each growth stage of ``names`` that is not bound yet."""
    for name in names:
        if name not in globals():
            __getattr__(name)


def _prepare_out(out_dir: str | Path, overwrite: bool) -> Path:
    out = Path(out_dir)
    if out.exists() and any(out.iterdir()) and not overwrite:
        raise FileExistsError(
            f"output directory {out} is not empty; pass --overwrite to reuse it"
        )
    out.mkdir(parents=True, exist_ok=True)
    return out


def _sha256(path: Path) -> str:
    with open(path, "rb") as fh:
        return hashlib.file_digest(fh, "sha256").hexdigest()


def _write_manifest(
    out: Path, written: Iterable[str], experiment: str, config_doc: dict, extra: dict
) -> None:
    """manifest.json, with a sha256 of each file ``written`` by the command;
    any other file in ``out`` is left alone and not listed."""
    payload = {
        "experiment": experiment,
        "config": config_doc,
        "artifacts": {name: _sha256(out / name) for name in written},
        **extra,
    }
    _write_json(out / "manifest.json", payload)


def _write_json(path: Path, payload) -> str:
    """Writes ``payload`` to ``path``; returns the file's name, as every
    writer here does."""
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path.name


def _write_csv(path: Path, header: Sequence, rows: Iterable[Sequence]) -> str:
    """One header line, then one line per row; each row lists its values in
    the header's order, so a table with no rows is its header alone."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    return path.name


def _fmt(value: float | None) -> str:
    return "" if value is None else f"{float(value):.6f}"


def _deg(radians: float | None) -> str:
    """An angle in radians, written in degrees; blank when there is none."""
    return _fmt(None if radians is None else math.degrees(radians))


def _write_summary(out: Path, summary: EvalSummary) -> list[str]:
    """``dipex eval``'s summary.json and its one-row summary.csv."""
    written = [_write_json(out / "summary.json", summary.to_dict())]
    caps = sorted(summary.ar_at)
    header = [f"ar_{cap}" for cap in caps] + ["ar_s", "ar_m", "ar_l", "ap", "ap_s", "ap_m", "ap_l"]
    row = [*(summary.ar_at[cap] for cap in caps), summary.ar_small, summary.ar_medium, summary.ar_large]
    row += [summary.ap, summary.ap_small, summary.ap_medium, summary.ap_large]
    return written + [_write_csv(out / "summary.csv", header, [map(_fmt, row)])]


def run_pilot_merging(
    config: ExperimentConfig,
    seeds: Sequence[int],
    out_dir: str | Path,
    overwrite: bool = False,
) -> Path:
    """Contrast the two query-merging policies on both vocabulary styles.

    Each seed's world is built once and scored with both zero-shot
    vocabularies under query merging (joint submission, overlap penalty) and
    prediction merging (independent passes, soft-NMS union).  The relative
    recall drop of query merging is the quantity of interest: near zero for a
    dispersed vocabulary, catastrophic for an overlapping one.  A repeated
    seed is scored once, at its first position.
    """
    from .detector import QueryMode, overlap_penalty

    _bind("generate_world", "build_vocabulary", "detect_world")
    seeds = list(dict.fromkeys(seeds))
    seeded = [with_seed(config, seed) for seed in seeds]  # every seed checked before any write
    cap = max(config.max_dets)
    # rows grouped by style, then seed; one world is alive at a time
    rows_by_style: dict[str, list[tuple]] = {"dispersed": [], "overlapping": []}
    for each in seeded:
        seed = each.world.seed
        world = generate_world(each.world)
        gts = GroundTruthSet.from_world(world)
        for style, rows in rows_by_style.items():
            vocab_cfg = replace(each.vocabulary, style=style)
            vocab = build_vocabulary(world, vocab_cfg)
            prompts = [(i, v) for i, v in enumerate(vocab)]
            summaries = {}
            for mode in (QueryMode.QUERY_MERGING, QueryMode.PREDICTION_MERGING):
                dets = detect_world(world, prompts, mode, config.detector, seed)
                summaries[mode] = evaluate(dets, gts, config.max_dets)
            ar_pm = summaries[QueryMode.PREDICTION_MERGING].ar_at[cap]
            ar_qm = summaries[QueryMode.QUERY_MERGING].ar_at[cap]
            delta = (
                (ar_qm - ar_pm) / ar_pm * 100.0
                if ar_pm is not None and ar_qm is not None and ar_pm > 0.0
                else None
            )
            penalty = overlap_penalty(vocab, config.detector)
            rows.append((style, seed, len(vocab), *map(_fmt, (penalty, ar_pm, ar_qm, delta))))
    header = ["vocabulary", "seed", "num_queries", "overlap_penalty"]
    header += [f"ar_{cap}_pm", f"ar_{cap}_qm", "delta_ar_pct"]
    out = _prepare_out(out_dir, overwrite)  # only once every seed has been scored
    pilot = _write_csv(out / "pilot.csv", header, [row for rows in rows_by_style.values() for row in rows])
    _write_manifest(out, [pilot], "pilot", config.as_dict(), {"seeds": seeds})
    return out


def _write_run_artifacts(
    out: Path, config: ExperimentConfig, world: World, result: RunResult
) -> list[str]:
    """Writes every file of ``dipex run`` but the manifest; returns their names."""
    from .detector import detections_to_coco
    from .dispersion import LossBreakdown

    cap = max(config.max_dets)
    mac = result.mac_report
    alpha_by_round = dict(enumerate(mac.alpha_max, start=2))
    header = ["round", "num_prompts", "num_labels", f"ar_{cap}", "ar_s", "ar_m", "ar_l", "ap"]
    header += ["alpha_max_degrees"]
    rows = []
    for rnd, (s, num_labels) in enumerate(zip(result.eval_summaries, result.label_counts), 1):
        num_prompts = 1 + (rnd - 1) * config.expansion.num_children
        metrics = map(_fmt, (s.ar_at[cap], s.ar_small, s.ar_medium, s.ar_large, s.ap))
        rows.append((rnd, num_prompts, num_labels, *metrics, _deg(alpha_by_round.get(rnd))))
    written = [_write_csv(out / "rounds.csv", header, rows)]
    written.append(_write_csv(
        out / "mac_report.csv",
        ["round", "alpha_max_degrees"],
        [(rnd, _deg(alpha)) for rnd, alpha in alpha_by_round.items()],
    ))
    for rnd, matrix in enumerate(mac.matrices, start=2):
        written.append(_write_csv(
            out / f"angles_round_{rnd}.csv",
            ["prompt", *range(len(matrix))],
            [(i, *map(_deg, row)) for i, row in enumerate(matrix.tolist())],
        ))
    written.append(_write_csv(
        out / "losses.csv",
        ["round", "epoch", *(f.name for f in fields(LossBreakdown))],
        [
            (rnd, epoch, *map(_fmt, astuple(losses)))
            for rnd, stats in enumerate(result.round_stats, start=1)
            for epoch, losses in enumerate(stats.epoch_losses, start=1)
        ],
    ))
    activations = []
    for expansion, counts in enumerate(result.activation_history, start=1):
        total = int(counts.sum())
        activations += [
            (expansion, pid, count, _fmt(count / total if total else 0.0))
            for pid, count in enumerate(counts.tolist())
        ]
    written.append(
        _write_csv(out / "activations.csv", ["expansion", "prompt_id", "count", "frequency"], activations)
    )
    written.append(_write_json(out / "tree.json", result.tree.to_dict()))

    written.append(_write_json(out / "detections.json", detections_to_coco(result.final_detections)))
    gts = GroundTruthSet.from_world(world)
    written.append(_write_json(out / "ground_truth.json", gts.to_coco()))
    _bind("rebuild_labels")
    labels = rebuild_labels(result.tree, world, config.expansion, config.detector)
    written.append(_write_json(out / "labels.json", labels.to_coco(gts.scene_dims)))

    final = result.eval_summaries[-1]
    summary = {
        "metrics": final.to_dict(),
        "rounds_trained": len(result.eval_summaries),
        "num_prompts": len(result.tree.nodes),
        "stopped_early": result.stopped_early,
        "final_alpha_max_degrees": math.degrees(mac.alpha_max[-1]) if mac.alpha_max else None,
        "label_counts": list(result.label_counts),
    }
    return written + [_write_json(out / "summary.json", summary)]


def run_dipex(
    config: ExperimentConfig, out_dir: str | Path, overwrite: bool = False
) -> tuple[Path, RunResult]:
    """One full growth run; writes per-round metrics, tree and detections."""
    _bind("generate_world", "build_vocabulary", "run", "rebuild_labels")
    world = generate_world(config.world)
    vocab = build_vocabulary(world, config.vocabulary)
    result = run(world, config.expansion, config.detector, vocab, config.max_dets)
    out = _prepare_out(out_dir, overwrite)  # only once the run has grown
    written = _write_run_artifacts(out, config, world, result)
    _write_manifest(out, written, "run", config.as_dict(), {"seeds": [config.expansion.seed]})
    return out, result


def _tree_angle_stats(tree) -> tuple[float | None, float | None]:
    """Mean parent-child angle and mean sibling angle, in radians; None
    where the tree has no such pair.

    A prompt's id is its row of the angle matrix.  Each parent's children
    hold consecutive ids, so the row-major sibling pairs come parent by
    parent.  Each mean adds left to right (``cumsum``), as ``evaluate``'s do.
    """
    from .geometry import pairwise_angle_matrix

    angles = pairwise_angle_matrix(tree.embedding_matrix())
    parent = np.array([-1 if node.parent_id is None else node.parent_id for node in tree.nodes])
    child = np.flatnonzero(parent >= 0)
    siblings = np.triu((parent[:, None] == parent) & (parent >= 0), 1)
    pairs = (angles[child, parent[child]], angles[siblings])
    return tuple(float(np.cumsum(v)[-1] / v.size) if v.size else None for v in pairs)


# sweep name -> its one definition: the expansion field it varies, its values'
# type and flag (recorded as "<flag>_values"), default values, help, and the
# columns before and after the results every sweep reports.
Sweep = namedtuple("Sweep", "field cast flag defaults help head tail")
SWEEPS = {
    "sweep-k": Sweep(
        "num_children", int, "k", (3, 6, 9, 12), "sweep the number of children per expansion",
        ["num_children", "num_prompts"], [],
    ),
    "sweep-gamma": Sweep(
        "gamma", float, "gamma", (0.01, 0.1, 1.0, 5.0), "sweep the sibling-repulsion weight",
        ["gamma"], ["mean_parent_child_degrees", "mean_sibling_degrees"],
    ),
}


def run_sweep(
    config: ExperimentConfig,
    sweep: str,
    values: Sequence[float],
    out_dir: str | Path,
    overwrite: bool = False,
) -> Path:
    """Grow once per value of the expansion field ``SWEEPS[sweep]`` varies,
    holding everything else fixed; writes ``sweep_k.csv`` or
    ``sweep_gamma.csv``, one row per value; a repeated value grows once, at
    its first position."""
    field, cast, flag, _, _, head, tail = SWEEPS[sweep]
    values = list(dict.fromkeys(cast(v) for v in values))
    # every value checked as a config file's is, before any write
    expansions = [with_settings(config, {"expansion": {field: v}}).expansion for v in values]
    _bind("generate_world", "build_vocabulary", "run")
    cap = max(config.max_dets)
    world = generate_world(config.world)
    vocab = build_vocabulary(world, config.vocabulary)
    columns = head + ["rounds_trained", "stopped_early", f"ar_{cap}", "ap", "alpha_max_degrees"] + tail
    rows = []
    for expansion in expansions:
        value = getattr(expansion, field)
        result = run(world, expansion, config.detector, vocab, config.max_dets)
        final = result.eval_summaries[-1]
        alpha = result.mac_report.alpha_max
        mean_pc, mean_sib = _tree_angle_stats(result.tree)
        # every column some sweep reports; this sweep writes its own
        row = {
            "num_children": value,
            "num_prompts": len(result.tree.nodes),
            "gamma": f"{value:g}",
            "rounds_trained": len(result.eval_summaries),
            "stopped_early": int(result.stopped_early),
            f"ar_{cap}": _fmt(final.ar_at[cap]),
            "ap": _fmt(final.ap),
            "alpha_max_degrees": _deg(alpha[-1] if alpha else None),
            "mean_parent_child_degrees": _deg(mean_pc),
            "mean_sibling_degrees": _deg(mean_sib),
        }
        rows.append([row[column] for column in columns])
    out = _prepare_out(out_dir, overwrite)  # only once every value has grown
    table = _write_csv(out / f"{sweep.replace('-', '_')}.csv", columns, rows)
    _write_manifest(out, [table], sweep, config.as_dict(), {f"{flag}_values": values})
    return out


def run_eval_only(
    gt_path: str | Path,
    det_paths: Sequence[str | Path],
    out_dir: str | Path,
    max_dets: Sequence[int] = DEFAULT_MAX_DETS,
    merge: bool = False,
    overwrite: bool = False,
) -> tuple[Path, EvalSummary]:
    """Score COCO-format detection files against COCO-format ground truth.

    The files' rows are concatenated in file order and grouped by scene,
    keeping that order within a scene.  With ``merge`` each scene's union,
    ranked by (-score, box), additionally goes through Gaussian soft-NMS,
    all scenes in one grouped call with the detector's default sigma and
    floor, which is the sane setting when the files come from independently
    trained prompt sets.
    The manifest identifies the inputs by content (sha256), not by path, so
    rescoring the same files elsewhere writes the same bytes.  A faulty
    input fails before the output directory is made.
    """
    sigma, floor = DetectorParams.nms_sigma, DetectorParams.nms_floor
    max_dets = checked_max_dets(list(max_dets))  # before any file is read or written
    gts = load_coco_ground_truth(gt_path)
    dets = ScoredBoxes.concat(
        [rows for path in det_paths for rows in load_coco_detections(path).values()]
    )
    if merge:
        # each scene ranked by (-score, box), ties in file order
        dets = dets.take(np.lexsort((*dets.boxes.T[::-1], -dets.scores, dets.scene_ids)))
        kept = soft_nms(dets.scores, sigma, floor, dets.boxes, dets.scene_ids)
        dets = replace(dets.take(kept["index"]), scores=kept["score"])
    else:
        dets = dets.take(np.argsort(dets.scene_ids, kind="stable"))
    by_scene = dets.split()
    summary = evaluate(by_scene, gts, max_dets)
    out = _prepare_out(out_dir, overwrite)  # only once every input has been read and scored
    written = _write_summary(out, summary)
    settings = {
        "merge": merge,
        "nms_sigma": sigma,
        "nms_floor": floor,
        "max_dets": list(max_dets),
    }
    inputs = {
        "ground_truth_sha256": _sha256(Path(gt_path)),
        "detections_sha256": [_sha256(Path(p)) for p in det_paths],
    }
    _write_manifest(out, written, "eval", settings, inputs)
    return out, summary
