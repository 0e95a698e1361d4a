"""Command-line interface.

Subcommands: ``solve`` runs the full pipeline on a problem document,
``validate`` parses and validates only, ``demo`` runs the bundled supplier
dataset with the full trace. Diagnostics go to stderr; exit codes: 0 on
success, 1 on any input/computation error, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .errors import IntervalFusionError
from .loading import bundled_dataset_bytes, load_problem
from .pipeline import PER_DM, POOLED, rank_alternatives
from .reporting import FULL_TRACE, HUMAN_TABLE, JSON_FORMAT, SUMMARY, emit_report


def _alpha_level(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid alpha {text!r}") from None
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"alpha must lie in [0, 1], got {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="intervalfusion",
        description="Rank alternatives by fusing interval-weighted evidence.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # solve and validate read a document with the same options
    document = argparse.ArgumentParser(add_help=False)
    document.add_argument("--input", required=True, help="path to a problem JSON document")
    document.add_argument(
        "--alpha",
        type=_alpha_level,
        default=0.0,
        help="alpha-cut level for fuzzy linguistic terms (default 0: full support)",
    )

    solve = sub.add_parser(
        "solve", parents=[document], help="solve a problem document and write a report"
    )
    solve.add_argument("--output", help="write the report here instead of stdout")
    solve.add_argument(
        "--format", choices=("table", "json"), default="table", help="report format"
    )
    solve.add_argument("--trace", action="store_true", help="include all intermediate tables")
    solve.add_argument(
        "--criterion-normalization",
        choices=(POOLED, PER_DM),
        default=POOLED,
        help="normalize criterion weights across all decision makers (pooled) "
        "or within each decision maker (per-dm)",
    )
    solve.set_defaults(func=_cmd_solve)

    validate = sub.add_parser(
        "validate", parents=[document], help="parse and validate a problem document"
    )
    validate.set_defaults(func=_cmd_validate)

    demo = sub.add_parser("demo", help="run the bundled supplier-selection dataset with --trace")
    demo.set_defaults(func=_cmd_demo)

    return parser


def _write_output(data: bytes, path: str | None) -> None:
    if path is None:
        # the report is UTF-8 whatever the encoding of text stdout
        sys.stdout.flush()
        sys.stdout.buffer.write(data)
        return
    target = Path(path)
    if target.exists() and not target.is_file():  # a device or pipe, e.g. /dev/stdout
        target.write_bytes(data)
        return
    # Write a temporary file beside the target and rename it over the target,
    # so a failed run leaves any existing report as it was. A symlink keeps
    # pointing where it did: the file it points to is the one replaced.
    target = target.resolve()
    tmp = target.with_name(f".{target.name}.{os.getpid()}-{os.urandom(4).hex()}.tmp")
    try:
        tmp.write_bytes(data)
        os.replace(tmp, target)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _cmd_solve(args: argparse.Namespace) -> int:
    problem = load_problem(Path(args.input).read_bytes(), alpha=args.alpha)
    report = rank_alternatives(problem, criterion_normalization=args.criterion_normalization)
    mode = FULL_TRACE if args.trace else SUMMARY
    fmt = JSON_FORMAT if args.format == "json" else HUMAN_TABLE
    _write_output(emit_report(report, mode=mode, fmt=fmt), args.output)
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    problem = load_problem(Path(args.input).read_bytes(), alpha=args.alpha)
    print(
        f"valid: {len(problem.decision_makers)} decision makers, "
        f"{len(problem.criteria)} criteria, {len(problem.alternatives)} alternatives"
    )
    return 0


def _cmd_demo(args: argparse.Namespace) -> int:
    problem = load_problem(bundled_dataset_bytes())
    report = rank_alternatives(problem)
    _write_output(emit_report(report, mode=FULL_TRACE, fmt=HUMAN_TABLE), None)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except IntervalFusionError as exc:
        print(f"error ({type(exc).__name__}): {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error (IO): {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
