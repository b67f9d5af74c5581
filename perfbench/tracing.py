"""Traced run of one `dipex` command: per-layer time and work counts.

Run as `python3 perfbench/tracing.py --metrics FILE -- <dipex CLI args>`.
Before handing the arguments to `dipex.cli.main`, it replaces each traced
function at the name its caller looks it up under (`expansion.detect_world`,
`detector.soft_nms`, `pseudo_labels.iou`, ...) with a wrapper that records
a span, or only counts calls for `boxes.iou`, which is too hot for spans.
Nothing under `src/` changes.  Spans stay in memory; when the command ends
the per-layer metrics are computed from them and written to FILE as JSON.

A layer's time (`<layer>.s`) is the summed duration of its outermost spans;
its self time (`<layer>.self_s`) subtracts the time covered by the spans it
directly caused.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import sys
import time
from collections import Counter

GROW, PILOT, EVAL = ("grow",), ("pilot",), ("eval_merge",)
ALL = GROW + PILOT + EVAL
# (name, unit, workloads on which the value must be non-zero).  labels_missed
# is legitimately 0 when every pseudo-label keeps a matching candidate, so it
# has none; train_round.calls guards the wrapper it is counted in.
PER_LAYER = [
    ("expansion.train_round.s", "s", GROW),
    ("expansion.train_round.calls", "count", GROW),
    ("expansion.rebuild_labels.s", "s", GROW),
    ("expansion.bootstrap_labels.s", "s", GROW),
    ("expansion.activation_frequency.s", "s", GROW),
    ("expansion.run.self_s", "s", GROW),
    ("expansion.labels_assigned", "count", GROW),
    ("expansion.labels_missed", "count", ()),
    ("detection_losses.sigmoid_focal_loss.calls", "count", GROW),
    ("detection_losses.sigmoid_focal_loss.s", "s", GROW),
    ("detection_losses.box_loss.calls", "count", GROW),
    ("dispersion.loss.s", "s", GROW),
    ("dispersion.loss.calls", "count", GROW),
    ("geometry.s", "s", GROW + PILOT),
    ("detector.detect_world.s", "s", GROW + PILOT),
    ("detector.detect_world.calls", "count", GROW + PILOT),
    ("detector.detections", "count", GROW + PILOT),
    ("detector.candidate_detections.s", "s", GROW),
    ("detector.build_vocabulary.s", "s", GROW + PILOT),
    ("pseudo_labels.soft_nms.s", "s", ALL),
    ("pseudo_labels.soft_nms.calls", "count", ALL),
    ("pseudo_labels.soft_nms.boxes_in", "count", ALL),
    ("pseudo_labels.soft_nms.boxes_kept", "count", ALL),
    ("pseudo_labels.build_pseudo_labels.s", "s", GROW),
    ("pseudo_labels.build_pseudo_labels.candidates_in", "count", GROW),
    ("pseudo_labels.build_pseudo_labels.labels_out", "count", GROW),
    ("pseudo_labels.assign_responsibility.s", "s", GROW),
    ("boxes.iou.calls", "count", ALL),
    ("evaluation.evaluate.s", "s", ALL),
    ("evaluation.evaluate.calls", "count", ALL),
    ("evaluation.evaluate.scenes", "count", ALL),
    ("evaluation.evaluate.detections", "count", ALL),
    ("evaluation.load_coco.s", "s", EVAL),
    ("world.generate_world.s", "s", GROW + PILOT),
    ("experiments.self_s", "s", ALL),
]


def _tally_round(counts, args, result):
    counts["expansion.labels_assigned"] += result.assignments_final
    counts["expansion.labels_missed"] += result.misses_final


def _tally_detections(counts, args, result):
    counts["detector.detections"] += sum(len(v) for v in result.values())


def _tally_nms(counts, args, result):
    counts["pseudo_labels.soft_nms.boxes_in"] += len(args[0])
    counts["pseudo_labels.soft_nms.boxes_kept"] += len(result)


def _tally_labels(counts, args, result):
    counts["pseudo_labels.build_pseudo_labels.candidates_in"] += sum(len(v) for v in args[0].values())
    counts["pseudo_labels.build_pseudo_labels.labels_out"] += len(result)


def _tally_evaluate(counts, args, result):
    counts["evaluation.evaluate.scenes"] += result.num_scenes
    counts["evaluation.evaluate.detections"] += result.num_detections


_GEOMETRY = [
    ("expansion", f) for f in ("apply_rotation", "mac", "normalize", "pairwise_angle_matrix", "sample_child_rotations")
] + [("detector", f) for f in ("apply_rotation", "normalize", "sample_child_rotations")] + [("world", "normalize")]

# (module under dipex, attribute the caller looks up, layer, tally)
SPANS = [
    ("expansion", "train_round", "expansion.train_round", _tally_round),
    ("expansion", "rebuild_labels", "expansion.rebuild_labels", None),
    ("experiments", "rebuild_labels", "expansion.rebuild_labels", None),
    ("expansion", "bootstrap_labels", "expansion.bootstrap_labels", None),
    ("expansion", "activation_frequency", "expansion.activation_frequency", None),
    ("experiments", "run", "expansion.run", None),
    ("expansion", "sigmoid_focal_loss", "detection_losses.sigmoid_focal_loss", None),
    ("expansion", "l1_box_loss", "detection_losses.box_loss", None),
    ("expansion", "giou_loss", "detection_losses.box_loss", None),
    ("expansion", "parent_child_loss", "dispersion.loss", None),
    ("expansion", "child_child_loss", "dispersion.loss", None),
    ("expansion", "combine", "dispersion.loss", None),
    *[(module, attr, "geometry", None) for module, attr in _GEOMETRY],
    ("expansion", "detect_world", "detector.detect_world", _tally_detections),
    ("experiments", "detect_world", "detector.detect_world", _tally_detections),
    ("expansion", "candidate_detections", "detector.candidate_detections", None),
    ("expansion", "build_vocabulary", "detector.build_vocabulary", None),
    ("experiments", "build_vocabulary", "detector.build_vocabulary", None),
    ("detector", "soft_nms", "pseudo_labels.soft_nms", _tally_nms),
    ("experiments", "soft_nms", "pseudo_labels.soft_nms", _tally_nms),
    ("expansion", "build_pseudo_labels", "pseudo_labels.build_pseudo_labels", _tally_labels),
    ("expansion", "assign_responsibility", "pseudo_labels.assign_responsibility", None),
    ("expansion", "evaluate", "evaluation.evaluate", _tally_evaluate),
    ("experiments", "evaluate", "evaluation.evaluate", _tally_evaluate),
    ("experiments", "load_coco_ground_truth", "evaluation.load_coco", None),
    ("experiments", "load_coco_detections", "evaluation.load_coco", None),
    ("experiments", "generate_world", "world.generate_world", None),
    ("cli", "run_dipex", "experiments", None),
    ("cli", "run_pilot_merging", "experiments", None),
    ("cli", "run_eval_only", "experiments", None),
]
COUNTED = [
    ("pseudo_labels", "iou", "boxes.iou.calls"),
    ("evaluation", "iou", "boxes.iou.calls"),
]


class Tracer:
    """Spans as [name, start, end, parent index, nested in a same-name span]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._open: Counter = Counter()

    def span(self, name: str, fn, tally=None):
        spans, stack, open_names, counts = self.spans, self._stack, self._open, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            record = [name, clock(), 0.0, stack[-1] if stack else None, open_names[name] > 0]
            spans.append(record)
            stack.append(index)
            open_names[name] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                open_names[name] -= 1
                stack.pop()
            counts[f"{name}.calls"] += 1
            if tally is not None:
                tally(counts, args, result)
            return result

        return traced

    def count(self, key: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self) -> None:
        """Wrap every traced name; a name the program no longer has is an error."""
        for module_name, attr, layer, tally in SPANS:
            module = importlib.import_module(f"dipex.{module_name}")
            setattr(module, attr, self.span(layer, _lookup(module, attr), tally))
        for module_name, attr, key in COUNTED:
            module = importlib.import_module(f"dipex.{module_name}")
            setattr(module, attr, self.count(key, _lookup(module, attr)))

    def metrics(self) -> dict[str, float]:
        total: Counter = Counter()
        children: list[float] = [0.0] * len(self.spans)
        for name, start, end, parent, nested in self.spans:
            if parent is not None:
                children[parent] += end - start
            if not nested:
                total[name] += end - start
        self_time: Counter = Counter()
        for (name, start, end, _, _), covered in zip(self.spans, children):
            self_time[name] += end - start - covered
        values = {}
        for name, _, _ in PER_LAYER:
            if name.endswith(".self_s"):
                values[name] = self_time[name.removesuffix(".self_s")]
            elif name.endswith(".s"):
                values[name] = total[name.removesuffix(".s")]
            else:
                values[name] = float(self.counts[name])
        return values


def _lookup(module, attr: str):
    fn = getattr(module, attr, None)
    if not callable(fn):
        raise RuntimeError(f"traced name {module.__name__}.{attr} is missing; update perfbench/tracing.py")
    return fn


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--metrics", required=True, help="JSON file for the per-layer metrics")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER, help="-- then dipex CLI arguments")
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    from dipex import cli

    tracer = Tracer()
    tracer.install()
    code = cli.main(cli_args)
    with open(args.metrics, "w") as fh:
        json.dump(tracer.metrics(), fh, indent=1, sort_keys=True)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
