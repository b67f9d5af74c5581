"""Command-line interface.

Subcommands map one-to-one onto the experiment drivers.  Failures are
categorized on stderr as ``error[config]`` (exit 2), ``error[data]`` (exit 3)
or ``error[runtime]`` (exit 4) so callers can tell a bad flag from a bad file
from a run that fell over.  Importing the CLI loads only what ``dipex eval``
needs; the other drivers import the growth modules when they first run
(see ``experiments``).
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Sequence

from .config import DEFAULT_MAX_DETS, load_experiment_config, with_seed
from .evaluation import CocoFormatError
from .experiments import SWEEPS, run_dipex, run_eval_only, run_pilot_merging, run_sweep
from .pseudo_labels import EmptyPseudoLabels

DEFAULT_PILOT_SEEDS = 5


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dipex",
        description="Grow dispersed prompt trees against a simulated detector.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="YAML experiment configuration")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument(
            "--overwrite", action="store_true", help="reuse a non-empty output directory"
        )

    p = sub.add_parser("pilot", help="compare query merging with prediction merging")
    common(p)
    p.add_argument(
        "--seed",
        type=int,
        action="append",
        help="world seed; repeat for multiple seeds (default: 5 consecutive)",
    )

    p = sub.add_parser("run", help="one full prompt-tree growth run")
    common(p)
    p.add_argument("--seed", type=int, help="override the configured seed")

    for name, spec in SWEEPS.items():
        p = sub.add_parser(name, help=spec.help)
        common(p)
        p.add_argument("--seed", type=int, help="override the configured seed")
        p.add_argument(
            f"--{spec.flag}", type=spec.cast, nargs="+", default=list(spec.defaults), help="values to sweep"
        )

    p = sub.add_parser("eval", help="score COCO detections against COCO ground truth")
    p.add_argument("--gt", required=True, help="ground-truth JSON")
    p.add_argument(
        "--dets", required=True, action="append", help="detection results JSON (repeatable)"
    )
    p.add_argument(
        "--merge",
        action="store_true",
        help="soft-NMS the union when several detection files overlap",
    )
    p.add_argument("--max-dets", type=int, nargs="+", default=list(DEFAULT_MAX_DETS))
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--overwrite", action="store_true")

    return parser


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "eval":
        out, summary = run_eval_only(
            args.gt,
            args.dets,
            args.out,
            max_dets=args.max_dets,
            merge=args.merge,
            overwrite=args.overwrite,
        )
        cap = max(args.max_dets)
        ar = summary.ar_at[cap]
        print(f"ar_{cap}: {'n/a' if ar is None else f'{ar:.4f}'}")
        print(f"wrote {out / 'summary.json'}")
        return 0

    config = load_experiment_config(args.config)
    if args.command == "pilot":
        seeds = args.seed
        if not seeds:
            base = config.expansion.seed
            seeds = list(range(base, base + DEFAULT_PILOT_SEEDS))
        out = run_pilot_merging(config, seeds, args.out, overwrite=args.overwrite)
        print(f"wrote {out / 'pilot.csv'}")
        return 0

    if args.seed is not None:
        config = with_seed(config, args.seed)

    if args.command == "run":
        out, result = run_dipex(config, args.out, overwrite=args.overwrite)
        final = result.eval_summaries[-1]
        cap = max(config.max_dets)
        ar = final.ar_at[cap]
        print(
            f"rounds: {len(result.eval_summaries)}  prompts: {len(result.tree.nodes)}  "
            f"ar_{cap}: {'n/a' if ar is None else f'{ar:.4f}'}"
        )
        print(f"wrote {out / 'rounds.csv'}")
        return 0
    if args.command in SWEEPS:
        values = getattr(args, SWEEPS[args.command].flag)
        out = run_sweep(config, args.command, values, args.out, overwrite=args.overwrite)
        print(f"wrote {out / args.command.replace('-', '_')}.csv")
        return 0
    raise RuntimeError(f"unhandled command {args.command}")  # pragma: no cover


def reported(fn: Callable[..., int], *args) -> int:
    """``fn(*args)``, or its failure's category on stderr and that category's exit code."""
    try:
        return fn(*args)
    except CocoFormatError as exc:
        print(f"error[data]: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:  # config.ConfigError among them
        print(f"error[config]: {exc}", file=sys.stderr)
        return 2
    except (EmptyPseudoLabels, FileExistsError, OSError) as exc:
        print(f"error[runtime]: {exc}", file=sys.stderr)
        return 4


def main(argv: Sequence[str] | None = None) -> int:
    return reported(_dispatch, build_parser().parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
