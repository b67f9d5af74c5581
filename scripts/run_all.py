#!/usr/bin/env python3
"""Reproduce the full experiment grid into one results directory.

Runs the vocabulary pilot, one growth run per seed, and the children-count
and repulsion-weight sweeps, then prints a compact summary as it goes.
Everything is seeded, so rerunning into a fresh directory gives identical
artifacts byte for byte.  A failed step ends the script as it ends ``dipex``:
``error[config]`` (exit 2), ``error[data]`` (exit 3) or ``error[runtime]``
(exit 4) on stderr.
"""

import argparse
import sys
from pathlib import Path

from dipex.cli import reported
from dipex.experiments import (
    SWEEPS,
    load_experiment_config,
    run_dipex,
    run_pilot_merging,
    run_sweep,
    with_seed,
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--config", type=Path, default=None, help="YAML experiment config")
    parser.add_argument("--out", type=Path, default=Path("results"))
    parser.add_argument("--seeds", type=int, default=5, help="number of consecutive seeds")
    parser.add_argument("--skip-sweeps", action="store_true")
    parser.add_argument("--overwrite", action="store_true")
    args = parser.parse_args()
    if args.seeds < 1:
        parser.error(f"--seeds must be at least 1, got {args.seeds}")
    return reported(run_grid, args)


def run_grid(args: argparse.Namespace) -> int:
    config = load_experiment_config(args.config)
    base = config.expansion.seed
    seeds = list(range(base, base + args.seeds))
    cap = max(config.max_dets)

    print(f"pilot over seeds {seeds}")
    run_pilot_merging(config, seeds, args.out / "pilot", overwrite=args.overwrite)

    finals = []
    for seed in seeds:
        _, result = run_dipex(
            with_seed(config, seed), args.out / f"run_seed{seed}", overwrite=args.overwrite
        )
        first = result.eval_summaries[0].ar_at[cap]
        last = result.eval_summaries[-1].ar_at[cap]
        finals.append(last)
        print(
            f"seed {seed}: rounds {len(result.eval_summaries)}, "
            f"prompts {len(result.tree.nodes)}, ar_{cap} {first:.3f} -> {last:.3f}"
        )
    print(f"mean final ar_{cap}: {sum(finals) / len(finals):.3f}")

    if not args.skip_sweeps:
        for sweep, spec in SWEEPS.items():
            out = args.out / sweep.replace("-", "_")
            run_sweep(config, sweep, list(spec.defaults), out, overwrite=args.overwrite)
            print(f"{sweep} written to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
