"""Report rendering: human-readable tables or full-precision JSON.

Human tables round to 4 fractional digits (the formatter rounds to nearest,
ties to even); JSON output carries full float precision and round-trips
bit-exactly through ``json.loads``. Both render a full trace from the
report's triple tables, without building a mass function. A human table
writes a label as its ``repr`` if it is not printable, holds the ranking's
"≻" or starts with a quote, so a label cannot break, forge or split a line.

A report is rendered as a stream of str chunks (:func:`report_chunks`),
each at most one row of a table. Both formats read the full trace from one
list of its tables (:func:`_tables`), each row made as it is read: a row of
discounted cells is filled from the discount of that row alone. So
rendering holds one row at a time, not a table, and never builds
``report.cells``.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from io import BytesIO
from itertools import chain
from json.encoder import encode_basestring_ascii as _str

from .evidence import FRAME
from .pipeline import RankingReport, _nogc

SUMMARY = "summary"
FULL_TRACE = "full-trace"
HUMAN_TABLE = "human-table"
JSON_FORMAT = "json"

REPORT_VERSION = "1"

_flat = chain.from_iterable


def report_chunks(report: RankingReport, mode: str = SUMMARY, fmt: str = HUMAN_TABLE) -> Iterator[str]:
    """The report that :func:`emit_report` renders, as str chunks made one
    at a time, the last ending in the final newline. A bad ``mode`` or
    ``fmt`` raises ValueError here, before any chunk is made."""
    if mode not in (SUMMARY, FULL_TRACE):
        raise ValueError(f"mode must be {SUMMARY!r} or {FULL_TRACE!r}, got {mode!r}")
    if fmt not in (HUMAN_TABLE, JSON_FORMAT):
        raise ValueError(f"format must be {HUMAN_TABLE!r} or {JSON_FORMAT!r}, got {fmt!r}")
    cell_rows = report._cell_rows() if mode == FULL_TRACE else None
    return _render_json(report, mode, cell_rows) if fmt == JSON_FORMAT else _render_human(report, cell_rows)


@_nogc
def emit_report(report: RankingReport, mode: str = SUMMARY, fmt: str = HUMAN_TABLE) -> bytes:
    """Render a ranking report as UTF-8 bytes. ``mode`` is ``"summary"`` or
    ``"full-trace"``; ``fmt`` is ``"human-table"`` or ``"json"``. Each chunk
    is copied once, into the buffer whose bytes are returned. The cyclic
    garbage collector is paused while it runs, as in a rank."""
    out = BytesIO()
    for chunk in report_chunks(report, mode, fmt):
        out.write(chunk.encode())
    return out.getvalue()


def _labels(labels: Iterable[str]) -> list[str]:
    return [repr(x) if not x.isprintable() or "≻" in x or x[:1] in "'\"" else x for x in labels]


def _tables(report: RankingReport, cell_rows: Iterator, dms: list[str], alts: list[str]) -> tuple:
    """The full trace's tables in report order, each as its JSON key, its human
    title, the label lists that key its rows, outer first (``dms`` and ``alts``
    as the renderer writes them), and its rows' floats, made a tuple a row."""
    return (
        ("normalized_criterion_weights", "Normalized criterion weights", (dms,),
         (tuple(_flat((iv.lo, iv.hi) for iv in ws)) for ws in report.normalized_criterion_weights)),
        ("normalized_dm_weights", "Normalized decision-maker weights", (dms,),
         ((iv.lo, iv.hi) for iv in report.normalized_dm_weights)),
        ("cells", "Discounted interval BPAs ({%s}, {%s}, {%s, %s})" % (FRAME + FRAME), (dms, alts), cell_rows),
        # left + right, not tuple(): that resizes a small tuple, and keeps the freed one for reuse, one a row
        ("fused_per_dm", "Fused per decision maker", (dms, alts), (lt + rt for lt, rt in _flat(report.fused_per_dm))),
        ("final", "Final interval BPAs", (alts,), (lt + rt for lt, rt in report.final)),
        # the bet last, which the human row shows and JSON gives in "bets"
        ("collapsed", "Collapsed BPAs", (alts,), ((*t, bet) for t, bet in zip(report.collapsed, report.bets))),
    )


def _render_human(report: RankingReport, cell_rows: Iterator | None) -> Iterator[str]:
    alts = _labels(report.alternatives)

    if cell_rows is not None:
        # A row's %-template is its head (labels' "%" escaped as "%%") joining its table's lines, the
        # first "" so that the head leads each line; its floats fill it in order, each + 0.0 as in the summary.
        dms, talts, crits = ([x.replace("%", "%%") for x in _labels(labels)]
                             for labels in (report.decision_makers, report.alternatives, report.criteria))
        bpa = ": left (%.4f, %.4f, %.4f)  right (%.4f, %.4f, %.4f)\n"
        lines = {
            "normalized_criterion_weights": ["", ": " + "  ".join([c + " [%.4f, %.4f]" for c in crits]) + "\n"],
            "normalized_dm_weights": ["", ": [%.4f, %.4f]\n"],
            "cells": ["", *[" / " + c + bpa for c in crits]],
            "fused_per_dm": ["", bpa],
            "final": ["", bpa],
            "collapsed": ["", ": (%.4f, %.4f, %.4f) bet=%.4f\n"],
        }
        for name, title, labels, rows in _tables(report, cell_rows, dms, talts):
            yield title + "\n"
            heads = ["  "]  # a row's head: two spaces, then its labels joined by " / "
            for keys in labels[:-1]:
                heads = [head + key + " / " for head in heads for key in keys]
            for head, floats in zip((head + key for head in heads for key in labels[-1]), rows):
                yield head.join(lines[name]) % tuple([x + 0.0 for x in floats])
            yield "\n"

    width = max(len("Alternative"), max(map(len, alts)))
    header = f"bet({FRAME[0]})"
    yield f"{'Alternative':<{width}}  {header}\n"
    for alt, bet in zip(alts, report.bets):
        # bet + 0.0 normalizes -0.0 away before formatting.
        yield f"{alt:<{width}}  {format(bet + 0.0, '.4f'):>{len(header)}}\n"
    yield "\nRanking: " + " ≻ ".join(_labels(report.ranking)) + "\n"


# --- JSON ---------------------------------------------------------------------
# Laid out as json.dumps(doc, indent=2) lays out doc: one member a line, two
# more spaces a level, ",\n" between members, keys and strings escaped to ASCII
# by json's own function. Floats, all finite, go through repr and %r templates:
# float.__repr__, as json.dumps writes a finite float; a template's keys have
# each "%" escaped as "%%". Every array and object has a member: labels are
# never empty.


def _text(indent: str, members: Iterable[str], brackets: str = "{}") -> str:
    """A JSON object, or with ``brackets`` "[]" an array, of ``members`` given
    as strings, that opens on a line at ``indent``."""
    sep = "\n" + indent + "  "
    return brackets[0] + sep + ("," + sep).join(members) + "\n" + indent + brackets[1]


def _key(label: str) -> str:
    return _str(label) + ": "


def _heads(indent: str, labels: tuple[list[str], ...], lead: str) -> Iterator[str]:
    """The text before each row of a JSON object that opens at ``indent``,
    keyed by the first of ``labels`` and nested by the rest, outer first:
    the separator, the braces that close the previous row's inner objects,
    and the keys of the objects that the row opens. ``lead`` goes before
    the first."""
    keys, *inner = labels
    sep = lead + "{\n" + indent + "  "
    for key in keys:
        if inner:
            yield from _heads(indent + "  ", inner, sep + key)
            sep = "\n" + indent + "  },\n" + indent + "  "
        else:
            yield sep + key
            sep = ",\n" + indent + "  "


def _floats(indent: str, n: int, *labels: list[str]) -> str:
    """A JSON template of an array of ``n`` floats, in objects keyed by each of ``labels``."""
    if not labels:
        return _text(indent, ["%r"] * n, "[]")
    inner = _floats(indent + "  ", n, *labels[1:])
    return _text(indent, [key + inner for key in labels[0]])


def _render_json(report: RankingReport, mode: str, cell_rows: Iterator | None) -> Iterator[str]:
    alts = [_key(x) for x in report.alternatives]
    members = [
        _key("report_version") + _str(REPORT_VERSION),
        _key("mode") + _str(mode),
        _key("frame") + _text("  ", map(_str, FRAME), "[]"),
        _key("alternatives") + _text("  ", map(_str, report.alternatives), "[]"),
        _key("bets") + _text("  ", map(str.__add__, alts, map(repr, report.bets))),
        _key("ranking") + _text("  ", map(_str, report.ranking), "[]"),
    ]
    sep = "{\n  "
    for member in members:
        yield sep + member
        sep = ",\n  "
    if cell_rows is not None:
        yield sep + _key("criterion_normalization") + _str(report.criterion_normalization)
        dms = [_key(x) for x in report.decision_makers]
        crits = [_key(x).replace("%", "%%") for x in report.criteria]
        sides = [_key("left"), _key("right")]
        templates = {
            "normalized_criterion_weights": _floats(" " * 4, 2, crits),
            "normalized_dm_weights": _floats(" " * 4, 2),
            "cells": _floats(" " * 6, 3, crits, sides),
            "fused_per_dm": _floats(" " * 6, 3, sides),
            "final": _floats(" " * 4, 3, sides),
            "collapsed": _floats(" " * 4, 3) + "%.0r",  # %.0r takes the bet and writes nothing
        }
        for key, _, labels, rows in _tables(report, cell_rows, dms, alts):
            template = templates[key]
            # each row one fill of its table's template, after its head; the tail closes the table's objects
            for head, floats in zip(_heads("  ", labels, sep + _key(key)), rows):
                yield head + template % floats
            yield "".join(["\n  " + "  " * depth + "}" for depth in reversed(range(len(labels)))])
    yield "\n}\n"
