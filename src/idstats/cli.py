"""Command-line interface.

One config file drives every subcommand; flags override individual values.
Exit codes: 0 success, 1 config error, 2 data error, 3 runtime error.
"""

from __future__ import annotations

import argparse
import sys

from . import pipeline
from .config import apply_overrides, load_config
from .density import BANDWIDTH_POLICIES
from .errors import ConfigError, DataError


class _Parser(argparse.ArgumentParser):
    """Usage mistakes surface as config errors (exit 1), not SystemExit."""

    def error(self, message: str):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="idstats",
        description=(
            "Tabular intrusion-detection analysis: preprocessing and feature "
            "selection, tree-ensemble cross-validation, per-class density "
            "summaries, and a max-T permutation test."
        ),
    )
    common = _Parser(add_help=False)
    common.add_argument("--config", required=True, metavar="PATH",
                        help="YAML or JSON run configuration")
    common.add_argument("--seed", type=int, default=None, metavar="N",
                        help="override the master seed")
    common.add_argument("--out", default=None, metavar="DIR",
                        help="override the output directory")
    common.add_argument("--threads", type=int, default=None, metavar="N",
                        help="override the worker count")

    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    sub.add_parser("preprocess", parents=[common],
                   help="ingest, split, encode, scale, and select features")
    sub.add_parser("cv", parents=[common],
                   help="cross-validated model grids on the selected features")
    sub.add_parser("density", parents=[common],
                   help="per-class shape summaries and KDE curves")
    wy = sub.add_parser("wy", parents=[common],
                        help="max-T permutation test for a class pair")
    wy.add_argument("--classes", default=None, metavar="V,W",
                    help="class pair, comma separated")
    wy.add_argument("--permutations", type=int, default=None, metavar="B",
                    help="permutation count")
    wy.add_argument("--bandwidth", default=None,
                    choices=BANDWIDTH_POLICIES,
                    help="KDE bandwidth policy")
    wy.add_argument("--alpha", type=float, default=None,
                    help="significance level")
    sub.add_parser("report", parents=[common],
                   help="re-merge stage fragments into report.json")
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        classes = None
        raw_classes = getattr(args, "classes", None)
        if raw_classes is not None:
            parts = raw_classes.split(",")
            if len(parts) != 2 or not all(parts):
                raise ConfigError("--classes expects two comma-separated names")
            classes = (parts[0], parts[1])
        cfg = load_config(args.config)
        cfg = apply_overrides(
            cfg,
            seed=args.seed,
            out=args.out,
            threads=args.threads,
            classes=classes,
            permutations=getattr(args, "permutations", None),
            bandwidth=getattr(args, "bandwidth", None),
            alpha=getattr(args, "alpha", None),
        )
        if args.command == "report":
            path = pipeline.assemble_report(cfg)
        else:
            pipeline.run_stage(cfg, args.command)
            path = cfg.output / "report.json"
        print(f"{args.command}: wrote {path}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
