"""Command-line interface.

Subcommands: ``solve`` runs the full pipeline on a problem document,
``validate`` parses and validates only, ``demo`` runs the bundled supplier
dataset with the full trace. Diagnostics go to stderr; exit codes: 0 on
success, 1 on any input/computation error or when memory runs out, 2 on
usage errors.

``run`` is the process entry of ``python -m intervalfusion`` and of the
``intervalfusion`` console script; ``main`` is the in-process call.
"""

from __future__ import annotations

import argparse
import gc
import io
import os
import sys
from collections.abc import Iterable
from pathlib import Path

from .errors import IntervalFusionError
from .loading import bundled_dataset_bytes, load_problem
from .pipeline import PER_DM, POOLED, rank_alternatives
from .reporting import FULL_TRACE, HUMAN_TABLE, JSON_FORMAT, SUMMARY, emit_report, report_chunks  # noqa: F401

# emit_report is not called here: the CLI writes the report as report_chunks
# makes it. The name stays because benchmarks/spans.py wraps it on this module.


def _alpha_level(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid alpha {text!r}") from None
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"alpha must lie in [0, 1], got {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="intervalfusion",
                                     description="Rank alternatives by fusing interval-weighted evidence.")
    sub = parser.add_subparsers(dest="command", required=True)

    # solve and validate read a document with the same options
    document = argparse.ArgumentParser(add_help=False)
    document.add_argument("--input", required=True, help="path to a problem JSON document")
    document.add_argument("--alpha", type=_alpha_level, default=0.0,
                          help="alpha-cut level for fuzzy linguistic terms (default 0: full support)")

    solve = sub.add_parser("solve", parents=[document], help="solve a problem document and write a report")
    solve.add_argument("--output", help="write the report here instead of stdout")
    solve.add_argument("--format", choices=("table", "json"), default="table", help="report format")
    solve.add_argument("--trace", action="store_true", help="include all intermediate tables")
    solve.add_argument("--criterion-normalization", choices=(POOLED, PER_DM), default=POOLED,
                       help="normalize criterion weights across all decision makers (pooled) "
                       "or within each decision maker (per-dm)")
    solve.set_defaults(func=_cmd_solve)

    validate = sub.add_parser("validate", parents=[document], help="parse and validate a problem document")
    validate.set_defaults(func=_cmd_validate)

    demo = sub.add_parser("demo", help="run the bundled supplier-selection dataset with --trace")
    # demo is solve --trace on the bundled dataset, with solve's defaults
    demo.set_defaults(func=_cmd_solve, input=None, alpha=0.0, output=None, format="table", trace=True,
                      criterion_normalization=POOLED)

    return parser


def _descriptor(path: str) -> int | None:
    """The open descriptor of this process that ``path`` names, if any: ``N``
    for ``/dev/fd/N`` or ``/proc/self/fd/N``, else 1 or 2 when ``path`` is the
    file that stdout or stderr has open (the same ``st_dev`` and ``st_ino``)."""
    head, _, name = os.path.abspath(path).rpartition("/")
    if head in ("/dev/fd", "/proc/self/fd") and name.isdigit():
        return int(name)
    for fd in (1, 2):
        try:
            if os.path.samestat(os.stat(path), os.fstat(fd)):
                return fd
        except OSError:
            pass
    return None


def _write_output(chunks: Iterable[str], path: str | None) -> None:
    """Write each of ``chunks`` as it comes, UTF-8 encoded whatever the
    encoding of text stdout, to ``path`` or, if None, to stdout's descriptor,
    through a writer that writes each chunk whole and raises any error before
    it returns. An in-memory ``sys.stdout`` gets the text and encodes it."""
    tmp = None
    try:
        if sys.stdout:
            sys.stdout.flush()
        if path is None:
            try:
                fd = sys.stdout.fileno()
            except AttributeError:  # sys.stdout is None: descriptor 1 was closed at start
                fd = 1
            except ValueError:  # io.UnsupportedOperation, an in-memory stream
                sys.stdout.writelines(chunks)
                return
        else:
            fd = _descriptor(path)
        if fd is not None or os.path.exists(path) and not os.path.isfile(path):
            # In place: through the descriptor, at its offset and with its
            # flags (after `>> app.txt`, /dev/stdout appends to app.txt), or
            # to a device or pipe named by its path.
            writer = open(path, "wb") if fd is None else open(fd, "wb", closefd=False)
        else:
            # Write a temporary file beside the target and rename it over the
            # target after the last chunk, so a failed run leaves any existing
            # report as it was. A symlink keeps pointing where it did: the
            # file it points to is the one replaced.
            target = Path(path).resolve()
            tmp = target.with_name(f".{target.name}.{os.getpid()}-{os.urandom(4).hex()}.tmp")
            writer = open(tmp, "xb")
        with writer as out:
            for chunk in chunks:
                out.write(chunk.encode())
        if tmp is not None:
            os.replace(tmp, target)
    except BaseException as exc:
        if tmp is not None:
            tmp.unlink(missing_ok=True)
        if path is not None and isinstance(exc, OSError) and exc.errno is not None:
            raise OSError(exc.errno, exc.strerror, path) from exc  # name the path given, not tmp or fd
        raise


def _read_input(path: str) -> bytes:
    # not Path(path): its error would name the normalized path, '.' for ''
    with io.FileIO(path) as f:
        return f.readall()


def _cmd_solve(args: argparse.Namespace) -> int:
    source = bundled_dataset_bytes() if args.input is None else _read_input(args.input)
    problem = load_problem(source, alpha=args.alpha)
    report = rank_alternatives(problem, criterion_normalization=args.criterion_normalization)
    mode = FULL_TRACE if args.trace else SUMMARY
    fmt = JSON_FORMAT if args.format == "json" else HUMAN_TABLE
    _write_output(report_chunks(report, mode=mode, fmt=fmt), args.output)
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    problem = load_problem(_read_input(args.input), alpha=args.alpha)
    _write_output([f"valid: {len(problem.decision_makers)} decision makers, "
                   f"{len(problem.criteria)} criteria, {len(problem.alternatives)} alternatives\n"], None)
    return 0


def run() -> None:
    """Run the command that ``sys.argv`` names and exit with its code.
    Once ``main`` has returned or raised, every object alive is frozen, so
    the interpreter's exit-time collections skip what the import and the
    command built; atexit handlers, the final flush of stdio and the freeing
    of modules still run."""
    try:
        sys.exit(main())
    finally:
        gc.freeze()


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (IntervalFusionError, OSError) as exc:
        kind = type(exc).__name__ if isinstance(exc, IntervalFusionError) else "IO"
        print(f"error ({kind}): {exc}", file=sys.stderr)
        return 1
    except MemoryError:  # the stack has unwound, so what the run built is freed
        print("error (Memory): out of memory", file=sys.stderr)
        return 1
