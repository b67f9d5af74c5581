#!/usr/bin/env python3
"""Compare two dipex checkouts on one benchmark workload, in alternating pairs.

    python3 scripts/bench_pairs.py PARENT CHANGE --workload grow

Each of ten pairs runs `perfbench/run.py --seed 0 --trace 0` once in each
checkout, for the `run_seconds` that this repository's `BENCHMARK.json` sets,
the side that goes first alternating from pair to pair.  Before every run the
checkout's `src/dipex/__pycache__` is deleted, and runs write no bytecode, so
each one compiles from source as the benchmark does in a fresh checkout.  A
run whose output checks fail or that reports a failed operation stops the
script.

For each end-to-end metric of `BENCHMARK.json` the script prints both sides'
medians with their quartiles, in how many pairs the change was better, and a
verdict, the first of these that holds:

- `regression`: the change's median is worse than the parent's by more than
  the metric's `bound`, as a fraction of the parent's median;
- `unresolved`: the parent's own interquartile range is wider than that
  bound, so these runs cannot show the metric unchanged, and not every
  change run beat every parent run;
- `gain`: the change was better in at least nine tenths of the pairs, and
  its median beats the parent's by more than the parent's interquartile
  range;
- `same` otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10
SEED = 0


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile) of at least two values."""
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> tuple[int, str]:
    """(pairs the change won, verdict) for paired samples of one metric:
    ``parent[i]`` and ``change[i]`` come from pair i.  ``better`` is "lower"
    or "higher"; ``bound`` is the largest tolerated worsening, as a fraction
    of the parent's median."""
    sign = 1.0 if better == "lower" else -1.0  # sign * (parent - change) > 0: the change is better
    wins = sum(sign * (p - c) > 0.0 for p, c in zip(parent, change))
    q1, median, q3 = quartiles(parent)
    gap = sign * (median - statistics.median(change))
    if -gap > bound * abs(median):
        return wins, "regression"
    if q3 - q1 > bound * abs(median) and min(sign * p for p in parent) <= max(sign * c for c in change):
        return wins, "unresolved"
    if 10 * wins >= 9 * len(parent) and gap > q3 - q1:
        return wins, "gain"
    return wins, "same"


def run_side(checkout: Path, workload: str, seconds: float) -> dict[str, float]:
    """One untraced benchmark run in ``checkout``: its end-to-end metrics."""
    shutil.rmtree(checkout / "src" / "dipex" / "__pycache__", ignore_errors=True)
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
            "--seconds", str(seconds), "--trace", "0"]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(argv, cwd=checkout, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"bench_pairs: {checkout}: perfbench exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"bench_pairs: {checkout}: correct={result['correct']}, "
                 f"{result['failed']} of {result['attempted']} operations failed:\n{proc.stderr}")
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    args = parser.parse_args(argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    samples: dict[str, list[dict[str, float]]] = {"parent": [], "change": []}
    for i in range(PAIRS):
        for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
            samples[side].append(run_side(sides[side], args.workload, benchmark["run_seconds"]))
            print(f"pair {i + 1}/{PAIRS} {side}: {samples[side][-1]}", file=sys.stderr)

    print(f"{args.workload}, {PAIRS} pairs of {benchmark['run_seconds']} s runs: median [quartiles]")
    print(f"{'metric':<12} {'parent':<34} {'change':<34} {'wins':<6} verdict")
    for m in benchmark["end_to_end"]:
        parent = [run[m["name"]] for run in samples["parent"]]
        change = [run[m["name"]] for run in samples["change"]]
        wins, word = verdict(parent, change, m["better"], m["bound"])
        cells = ["{1:.4g} [{0:.4g}, {2:.4g}] {3}".format(*quartiles(v), m["unit"]) for v in (parent, change)]
        print(f"{m['name']:<12} {cells[0]:<34} {cells[1]:<34} {f'{wins}/{PAIRS}':<6} {word}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
