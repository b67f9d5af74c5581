#!/usr/bin/env python3
"""Reproduce the full experiment grid into one results directory.

Runs the vocabulary pilot, one growth run per seed, and the children-count
and repulsion-weight sweeps, then prints a compact summary as it goes.
Everything is seeded, so rerunning into a fresh directory gives identical
artifacts byte for byte.
"""

import argparse
import json
from pathlib import Path

from dipex.experiments import (
    SWEEPS,
    load_experiment_config,
    run_dipex,
    run_pilot_merging,
    run_sweep,
    with_seed,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--config", type=Path, default=None, help="YAML experiment config")
    parser.add_argument("--out", type=Path, default=Path("results"))
    parser.add_argument("--seeds", type=int, default=5, help="number of consecutive seeds")
    parser.add_argument("--skip-sweeps", action="store_true")
    parser.add_argument("--overwrite", action="store_true")
    args = parser.parse_args()

    config = load_experiment_config(args.config)
    base = config.expansion.seed
    seeds = list(range(base, base + args.seeds))
    cap = max(config.max_dets)

    print(f"pilot over seeds {seeds}")
    run_pilot_merging(config, seeds, args.out / "pilot", overwrite=args.overwrite)

    finals = []
    for seed in seeds:
        out, result = run_dipex(
            with_seed(config, seed), args.out / f"run_seed{seed}", overwrite=args.overwrite
        )
        summary = json.loads((out / "summary.json").read_text())
        first = result.eval_summaries[0].ar(cap)
        last = result.eval_summaries[-1].ar(cap)
        finals.append(last)
        print(
            f"seed {seed}: rounds {summary['rounds_trained']}, "
            f"prompts {summary['num_prompts']}, ar_{cap} {first:.3f} -> {last:.3f}"
        )
    print(f"mean final ar_{cap}: {sum(finals) / len(finals):.3f}")

    if not args.skip_sweeps:
        for sweep, spec in SWEEPS.items():
            out = args.out / sweep.replace("-", "_")
            run_sweep(config, sweep, list(spec.defaults), out, overwrite=args.overwrite)
            print(f"{sweep} written to {out}")


if __name__ == "__main__":
    main()
