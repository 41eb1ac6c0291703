"""Command-line interface.

Subcommands: gen-data, pretrain, classify, finetune, report, matrix.
Exit codes: 0 success, 1 usage/config error, 2 missing or damaged inputs,
3 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

# OpenBLAS sizes its thread pool when numpy loads it, so this must precede
# every import that loads numpy; see runner._single_thread_blas
os.environ["OPENBLAS_NUM_THREADS"] = "1"

from . import runner
from .errors import ConfigError, DatasetFormatError, MissingInputError, NumericError, parse
from .fsio import write_text_atomic
from .metrics import ConfusionMatrix

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_MISSING = 2
EXIT_NUMERIC = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="o2olab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, needs_config=True):
        p = sub.add_parser(name, help=help_text)
        if needs_config:
            p.add_argument("--config", required=True, help="experiment config JSON")
        return p

    p = add("gen-data", "generate the offline dataset and reference scores")
    p.add_argument("--force", action="store_true", help="overwrite existing output")

    p = add("pretrain", "pretrain one agent per seed and record J(pi_0)")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--force", action="store_true")

    add("classify", "assign the setting to a regime (TOST)")

    p = add("finetune", "run every configured method x seed")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--force", action="store_true", help="re-run completed runs")

    p = add("report", "analysis JSON, CSV tables, and plot data")
    p.add_argument(
        "--map-inconclusive",
        help="override the config's map_inconclusive: how Inconclusive regime labels are resolved",
    )

    p = add("matrix", "aggregate settings into a confusion matrix", needs_config=False)
    p.add_argument("analyses", nargs="*", help="analysis.json files or setting dirs")
    p.add_argument("--counts-json", help="JSON file with a raw 3x3 counts matrix")
    p.add_argument("--out", help="write the matrix JSON here as well")
    return parser


def _load_config(args) -> runner.ExperimentConfig:
    return runner.ExperimentConfig.from_file(args.config)


def _cmd_matrix(args) -> int:
    if args.counts_json:
        try:
            counts = json.loads(Path(args.counts_json).read_text())
        except FileNotFoundError:
            raise MissingInputError(f"no counts file at {args.counts_json}") from None
        except ValueError as exc:
            raise ConfigError(f"{args.counts_json} is not valid JSON: {exc}") from None
        matrix = parse(ConfusionMatrix.from_counts, {"counts": counts})
        result = {"matrix": matrix.to_dict(), "summary": matrix.summary_line()}
    else:
        if not args.analyses:
            raise ConfigError("matrix needs analysis paths or --counts-json")
        result = runner.aggregate_matrix(args.analyses)
    text = json.dumps(result, sort_keys=True, indent=2)
    print(text)
    print(result["summary"], file=sys.stderr)
    if args.out:
        write_text_atomic(args.out, text + "\n")
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    runner._configure_process()
    try:
        if args.command == "gen-data":
            path = runner.cmd_gen_data(_load_config(args), force=args.force)
        elif args.command == "pretrain":
            path = runner.cmd_pretrain(_load_config(args), jobs=args.jobs, force=args.force)
        elif args.command == "classify":
            path = runner.cmd_classify(_load_config(args))
        elif args.command == "finetune":
            files = runner.cmd_finetune(_load_config(args), jobs=args.jobs, force=args.force)
            print(f"{len(files)} run files under {files[0].parent.parent}")
            return EXIT_OK
        elif args.command == "report":
            config = _load_config(args)
            if args.map_inconclusive is not None:  # checked as the config key
                config = replace(config, map_inconclusive=args.map_inconclusive)
            path = runner.cmd_report(config)
        elif args.command == "matrix":
            return _cmd_matrix(args)
        else:  # pragma: no cover - argparse enforces the choices
            return EXIT_USAGE
        print(path)
        return EXIT_OK
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MissingInputError as exc:
        print(f"missing input: {exc}", file=sys.stderr)
        return EXIT_MISSING
    except DatasetFormatError as exc:
        print(f"damaged dataset: {exc}; re-run `o2olab gen-data --force`", file=sys.stderr)
        return EXIT_MISSING
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
