"""dipex benchmark: one workload, one closed-loop client, one result line.

    python3 perfbench/run.py --workload grow --seed 0 --seconds 30 --trace 0

Each operation is one `python -m dipex.cli ...` in a fresh process, timed
from spawn to exit; the next starts when it has ended.  A run repeats one
round of operations (one command for pilot and eval_merge, one per world
for grow) on the same inputs until the timed operations add up to
`--seconds`, and at least twice.  The first successful output of each
command is checked against independent references (see checks.py); every
later one must be byte-identical to it, or the operation counts as failed.

With `--trace 0` the result holds the end-to-end metrics.  With `--trace 1`
each operation runs under perfbench/tracing.py instead and the result holds
the per-layer metrics, each the median over operations; a metric that
should be non-zero on this workload and reads 0 stops the run.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import tracing
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"
MIN_ROUNDS = 2  # so every run repeats each command and checks determinism
SETUP_SAMPLES = 9
END_TO_END = [("setup_s", "s"), ("op_s", "s"), ("peak_rss_mb", "MB"), ("ar100", "fraction")]


def _child_env() -> dict[str, str]:
    path = [str(ROOT / "src")] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(path))


def spawn(argv: list[str], log: Path) -> tuple[float, float, int]:
    """Run argv to completion: (wall seconds, peak RSS in MB, exit code)."""
    with open(log, "wb") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=_child_env(), stdout=fh, stderr=subprocess.STDOUT)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def setup_seconds(work: Path, samples: int) -> float | None:
    """Median fresh-process start-up: interpreter start plus `import dipex.cli`.

    One unmeasured start comes first, so byte-compiling the sources once
    after checkout is not counted.
    """
    argv = [sys.executable, "-c", "import dipex.cli"]
    log = work / "setup.log"
    walls = []
    for _ in range(samples + 1):
        wall, _, code = spawn(argv, log)
        if code != 0:
            sys.exit(f"perfbench: `import dipex.cli` failed:\n{log.read_text()}")
        walls.append(wall)
    return statistics.median(walls[1:]) if samples else None


def measure(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, list[float]]:
    """One benchmark run.  Returns (result object, wall time of each good op)."""
    workload = WORKLOADS[name]
    work = WORK / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    setup_s = setup_seconds(work, 0 if trace else SETUP_SAMPLES)
    commands = workload.prepare(seed, work / "inputs")

    walls, rss, layers = [], [], []
    attempted = failed = 0
    correct = True
    ar100 = [0.0] * len(commands)
    references: list[dict | None] = [None] * len(commands)
    measured, rounds = 0.0, 0
    while measured < seconds or rounds < MIN_ROUNDS:
        rounds += 1
        for c, cli_args in enumerate(commands):
            out = work / f"op{attempted}"
            trace_file = work / f"{out.name}.trace.json"
            argv = [sys.executable]
            argv += [str(Path(tracing.__file__)), "--metrics", str(trace_file), "--"] if trace else ["-m", "dipex.cli"]
            argv += cli_args + ["--out", str(out)]
            wall, peak, code = spawn(argv, work / f"{out.name}.log")
            attempted += 1
            measured += wall
            if code != 0:
                failed += 1
                print(f"perfbench: {name} {out.name} exited {code}:\n"
                      f"{(work / f'{out.name}.log').read_text()}", file=sys.stderr)
                continue
            digests = checks.output_digests(out)
            if references[c] is None:
                references[c] = digests
                try:
                    ar100[c] = workload.check(out, cli_args)
                except (checks.CheckFailed, KeyError, ValueError, OSError) as exc:
                    correct = False
                    print(f"perfbench: {name} output check failed: {exc!r}", file=sys.stderr)
            elif digests != references[c]:
                failed += 1
                print(f"perfbench: {name} {out.name} output differs from an earlier run of the same command",
                      file=sys.stderr)
                continue
            shutil.rmtree(out)
            walls.append(wall)
            rss.append(peak)
            if trace:
                layers.append(checks.load_json(trace_file))
    if not walls:
        sys.exit(f"perfbench: every {name} operation failed")

    if trace:
        metrics = {}
        for metric, unit, required in tracing.PER_LAYER:
            value = statistics.median(layer[metric] for layer in layers)
            if name in required and value <= 0:
                sys.exit(f"perfbench: trace self-check: {metric} reads {value} on {name}; "
                         "a traced name is no longer called")
            metrics[metric] = {"value": value, "unit": unit}
    else:
        values = {
            "setup_s": setup_s,
            "op_s": statistics.median(walls),
            "peak_rss_mb": statistics.median(rss),
            "ar100": statistics.mean(ar100),
        }
        metrics = {m: {"value": values[m], "unit": unit} for m, unit in END_TO_END}
    shutil.rmtree(work)
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, walls


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    for needed in ("src/dipex/cli.py", "tests/reference_eval.py"):
        if not (ROOT / needed).is_file():
            sys.exit(f"perfbench: {needed} not found under {ROOT}; run from a dipex checkout")
    result, _ = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
