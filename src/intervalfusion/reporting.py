"""Report rendering: human-readable tables or full-precision JSON.

Human tables round to 4 fractional digits (the formatter rounds to nearest,
ties to even); JSON output carries full float precision and round-trips
bit-exactly through ``json.loads``. Both render a full trace from the
report's triple tables, without building a mass function. A human table
writes a label as its ``repr`` if it is not printable, holds the ranking's
"≻" or starts with a quote, so a label cannot break, forge or split a line.
"""

from __future__ import annotations

from collections.abc import Iterable
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii as _str

from .evidence import FRAME
from .pipeline import RankingReport

SUMMARY = "summary"
FULL_TRACE = "full-trace"
HUMAN_TABLE = "human-table"
JSON_FORMAT = "json"

REPORT_VERSION = "1"


def emit_report(report: RankingReport, mode: str = SUMMARY, fmt: str = HUMAN_TABLE) -> bytes:
    """Render a ranking report. ``mode`` is ``"summary"`` or ``"full-trace"``;
    ``fmt`` is ``"human-table"`` or ``"json"``."""
    if mode not in (SUMMARY, FULL_TRACE):
        raise ValueError(f"mode must be {SUMMARY!r} or {FULL_TRACE!r}, got {mode!r}")
    if fmt not in (HUMAN_TABLE, JSON_FORMAT):
        raise ValueError(f"format must be {HUMAN_TABLE!r} or {JSON_FORMAT!r}, got {fmt!r}")
    text = _render_json(report, mode) if fmt == JSON_FORMAT else _render_human(report, mode)
    return (text + "\n").encode("utf-8")


def _labels(labels: Iterable[str]) -> list[str]:
    return [repr(x) if not x.isprintable() or "≻" in x or x[:1] in "'\"" else x for x in labels]


def _render_human(report: RankingReport, mode: str) -> str:
    lines: list[str] = []
    e0, e1 = FRAME
    alts = _labels(report.alternatives)

    if mode == FULL_TRACE:
        # Each table is one %-template, its labels' "%" escaped as "%%", filled
        # with the table's floats in order, each + 0.0 as in the summary rows.
        dms, talts, crits = ([x.replace("%", "%%") for x in _labels(labels)]
                             for labels in (report.decision_makers, report.alternatives, report.criteria))
        bpa = ": left (%.4f, %.4f, %.4f)  right (%.4f, %.4f, %.4f)"
        flat = chain.from_iterable
        for title, rows, floats in (
            ("Normalized criterion weights",
             ("  " + dm + ": " + "  ".join([c + " [%.4f, %.4f]" for c in crits]) for dm in dms),
             flat((iv.lo, iv.hi) for ws in report.normalized_criterion_weights for iv in ws)),
            ("Normalized decision-maker weights", ("  " + dm + ": [%.4f, %.4f]" for dm in dms),
             flat((iv.lo, iv.hi) for iv in report.normalized_dm_weights)),
            (f"Discounted interval BPAs ({{{e0}}}, {{{e1}}}, {{{e0}, {e1}}})",
             (f"  {dm} / {alt} / {c}{bpa}" for dm in dms for alt in talts for c in crits),
             flat(flat(flat(flat(report.cells))))),
            ("Fused per decision maker", (f"  {dm} / {alt}{bpa}" for dm in dms for alt in talts),
             flat(flat(flat(report.fused_per_dm)))),
            ("Final interval BPAs", (f"  {alt}{bpa}" for alt in talts), flat(flat(report.final))),
            ("Collapsed BPAs", (f"  {alt}: (%.4f, %.4f, %.4f) bet=%.4f" for alt in talts),
             flat((*t, bet) for t, bet in zip(report.collapsed, report.bets))),
        ):
            lines += [title, "\n".join(rows) % tuple([x + 0.0 for x in floats]), ""]

    width = max(len("Alternative"), max(map(len, alts)))
    header = f"bet({e0})"
    lines.append(f"{'Alternative':<{width}}  {header}")
    for alt, bet in zip(alts, report.bets):
        # bet + 0.0 normalizes -0.0 away before formatting.
        lines.append(f"{alt:<{width}}  {format(bet + 0.0, '.4f'):>{len(header)}}")
    lines += ["", "Ranking: " + " ≻ ".join(_labels(report.ranking))]
    return "\n".join(lines)


# --- JSON ---------------------------------------------------------------------
# Laid out as json.dumps(doc, indent=2) lays out doc: one member a line, two
# more spaces a level, ",\n" between members, keys and strings escaped to ASCII
# by json's own function. Floats, all finite, go through repr and %r templates:
# float.__repr__, as json.dumps writes a finite float. Each trace table is one
# template, each of its rows the same, its keys' "%" escaped as "%%"; it is
# filled with the table's floats in order.


def _array(indent: str, values: Iterable[str]) -> str:
    """A JSON array of rendered ``values``, opening on a line at ``indent``."""
    inner = "\n" + indent + "  "
    body = ("," + inner).join(values)
    return "[" + inner + body + "\n" + indent + "]" if body else "[]"


def _object(indent: str, keys: Iterable[str], values: Iterable[str]) -> str:
    """A JSON object as :func:`_array`; each key is escaped and ends in ': '."""
    inner = "\n" + indent + "  "
    body = ("," + inner).join(map(str.__add__, keys, values))
    return "{" + inner + body + "\n" + indent + "}" if body else "{}"


def _keys(labels: Iterable[str], percent: str = "%") -> list[str]:
    return [_str(x).replace("%", percent) + ": " for x in labels]


def _pair(indent: str) -> str:
    return _object(indent, _keys(("left", "right")), [_array(indent + "  ", ["%r"] * 3)] * 2)


def _render_json(report: RankingReport, mode: str) -> str:
    keys = ["report_version", "mode", "frame", "alternatives", "bets", "ranking"]
    values = [
        _str(REPORT_VERSION),
        _str(mode),
        _array("  ", map(_str, FRAME)),
        _array("  ", map(_str, report.alternatives)),
        _object("  ", _keys(report.alternatives), map(repr, report.bets)),
        _array("  ", map(_str, report.ranking)),
    ]
    if mode == FULL_TRACE:
        cells = report.cells  # first, as in the human table: a report with no trace raises before any template
        dms, alts, crits = (_keys(x, "%%") for x in (report.decision_makers, report.alternatives, report.criteria))
        flat = chain.from_iterable
        row = _object("      ", crits, repeat(_pair(" " * 8)))  # one (decision maker, alternative) row of cells
        keys += ["criterion_normalization", "normalized_criterion_weights", "normalized_dm_weights"]
        keys += ["cells", "fused_per_dm", "final", "collapsed"]
        # each template is filled as soon as it is built, so that only one is alive at a time
        values += [
            _str(report.criterion_normalization),
            _object("  ", dms, repeat(_object("    ", crits, repeat(_array(" " * 6, ["%r"] * 2)))))
            % tuple(flat((iv.lo, iv.hi) for ws in report.normalized_criterion_weights for iv in ws)),
            _object("  ", dms, repeat(_array(" " * 4, ["%r"] * 2)))
            % tuple(flat((iv.lo, iv.hi) for iv in report.normalized_dm_weights)),
            _object("  ", dms, repeat(_object("    ", alts, repeat(row))))
            % tuple(flat(flat(flat(flat(cells))))),
            _object("  ", dms, repeat(_object("    ", alts, repeat(_pair(" " * 6)))))
            % tuple(flat(flat(flat(report.fused_per_dm)))),
            _object("  ", alts, repeat(_pair(" " * 4))) % tuple(flat(flat(report.final))),
            _object("  ", alts, repeat(_array(" " * 4, ["%r"] * 3))) % tuple(flat(report.collapsed)),
        ]
    return _object("", _keys(keys), values)
