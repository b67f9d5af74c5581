"""Rerun everything the benchmark reports, for one seed.

    python3 perfbench/report.py [--seed 0] [--seconds 20]

Prints the machine, then for every workload each end-to-end metric (untraced
run) and each per-layer metric (traced run) by name with its unit, how many
operations were attempted and failed, and the tracing overhead (median traced
op wall time minus untraced op_s).  Ends with the kernel scaling figures of
scaling.py.  `--seconds` defaults to BENCHMARK.json's run_seconds.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys

import numpy

import run
import tracing


def main(argv: list[str]) -> int:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    args = parser.parse_args(argv)

    declared = {(m["name"], m["unit"]) for m in bench["end_to_end"] + bench["per_layer"]}
    reported = set(run.END_TO_END) | {(name, unit) for name, unit, _ in tracing.PER_LAYER}
    if declared != reported:
        sys.exit(f"BENCHMARK.json and the code disagree on {sorted(declared ^ reported)}")

    print(f"machine: nproc {len(os.sched_getaffinity(0))}, Python {platform.python_version()}, "
          f"numpy {numpy.__version__}, {platform.machine()}")
    print(f"seed {args.seed}, {args.seconds:g} s per run")
    for w in bench["workloads"]:
        name = w["name"]
        plain, walls = run.measure(name, args.seed, args.seconds, trace=False)
        traced, traced_walls = run.measure(name, args.seed, args.seconds, trace=True)
        for kind, result in (("untraced", plain), ("traced", traced)):
            print(f"{name} {kind}: attempted {result['attempted']}, failed {result['failed']}, "
                  f"correct {result['correct']}")
            for metric, m in result["metrics"].items():
                print(f"  {name:10s} {metric:48s} {m['value']:14.6g} {m['unit']}")
        overhead = statistics.median(traced_walls) - statistics.median(walls)
        print(f"  {name:10s} {'tracing overhead (traced op minus op_s)':48s} {overhead:14.6g} s")

    sys.path.insert(0, str(run.ROOT / "src"))
    import scaling

    return scaling.main()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
