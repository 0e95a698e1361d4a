"""Report rendering: human-readable tables or full-precision JSON.

Human tables round to 4 fractional digits (the formatter rounds to nearest,
ties to even); JSON output carries full float precision and round-trips
bit-exactly through ``json.loads``. Both render a full trace from the
report's triple tables, without building a mass function. A human table
writes a label as its ``repr`` if it is not printable, holds the ranking's
"≻" or starts with a quote, so a label cannot break, forge or split a line.
"""

from __future__ import annotations

import json
from collections.abc import Iterable
from json.encoder import encode_basestring_ascii as _str

from .evidence import FRAME, Triple
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


def _fmt(x: float) -> str:
    # x + 0.0 normalizes -0.0 away before formatting.
    return format(x + 0.0, ".4f")


def _triple_str(triple: Triple) -> str:
    return "(" + ", ".join(_fmt(x) for x in triple) + ")"


def _interval_str(iv) -> str:
    return f"[{_fmt(iv.lo)}, {_fmt(iv.hi)}]"


def _bpa_str(lt: Triple, rt: Triple) -> str:
    return f"left {_triple_str(lt)}  right {_triple_str(rt)}"


def _labels(labels: Iterable[str]) -> list[str]:
    return [repr(x) if not x.isprintable() or "≻" in x or x[:1] in "'\"" else x for x in labels]


def _render_human(report: RankingReport, mode: str) -> str:
    lines: list[str] = []
    e0, e1 = FRAME
    alts = _labels(report.alternatives)

    if mode == FULL_TRACE:
        dms, crits = _labels(report.decision_makers), _labels(report.criteria)
        lines.append("Normalized criterion weights")
        for dm, ws in zip(dms, report.normalized_criterion_weights):
            weights = "  ".join(f"{crit} {_interval_str(iv)}" for crit, iv in zip(crits, ws))
            lines.append(f"  {dm}: {weights}")
        lines += ["", "Normalized decision-maker weights"]
        for dm, iv in zip(dms, report.normalized_dm_weights):
            lines.append(f"  {dm}: {_interval_str(iv)}")
        lines += ["", f"Discounted interval BPAs ({{{e0}}}, {{{e1}}}, {{{e0}, {e1}}})"]
        for dm, dm_cells in zip(dms, report.cells):
            for alt, row in zip(alts, dm_cells):
                for crit, pair in zip(crits, row):
                    lines.append(f"  {dm} / {alt} / {crit}: {_bpa_str(*pair)}")
        lines += ["", "Fused per decision maker"]
        for dm, fused in zip(dms, report.fused_per_dm):
            for alt, pair in zip(alts, fused):
                lines.append(f"  {dm} / {alt}: {_bpa_str(*pair)}")
        lines += ["", "Final interval BPAs"]
        for alt, pair in zip(alts, report.final):
            lines.append(f"  {alt}: {_bpa_str(*pair)}")
        lines += ["", "Collapsed BPAs"]
        for alt, t, bet in zip(alts, report.collapsed, report.bets):
            lines.append(f"  {alt}: {_triple_str(t)} bet={_fmt(bet)}")
        lines.append("")

    width = max(len("Alternative"), max(map(len, alts)))
    header = f"bet({e0})"
    lines.append(f"{'Alternative':<{width}}  {header}")
    for alt, bet in zip(alts, report.bets):
        lines.append(f"{alt:<{width}}  {_fmt(bet):>{len(header)}}")
    lines += ["", "Ranking: " + " ≻ ".join(_labels(report.ranking))]
    return "\n".join(lines)


# --- JSON ---------------------------------------------------------------------
# Laid out as json.dumps(doc, indent=2) lays out doc: one member a line, two
# more spaces a level, ",\n" between members, keys and strings escaped to ASCII
# by json's own function. Floats go through %r templates: float.__repr__.


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


def _keys(labels: Iterable[str]) -> list[str]:
    return [_str(x) + ": " for x in labels]


def _pair(indent: str) -> str:
    return _object(indent, _keys(("left", "right")), [_array(indent + "  ", ["%r"] * 3)] * 2)


def _render_json(report: RankingReport, mode: str) -> str:
    bets = {alt: report.bets[a] for a, alt in enumerate(report.alternatives)}
    keys = ["report_version", "mode", "frame", "alternatives", "bets", "ranking"]
    values = [
        _str(REPORT_VERSION),
        _str(mode),
        _array("  ", map(_str, FRAME)),
        _array("  ", map(_str, report.alternatives)),
        _object("  ", _keys(bets), map(json.dumps, bets.values())),
        _array("  ", map(_str, report.ranking)),
    ]
    if mode == FULL_TRACE:
        dms, alts, crits = map(_keys, (report.decision_makers, report.alternatives, report.criteria))
        crit_weight, dm_weight = _array(" " * 6, ["%r"] * 2), _array(" " * 4, ["%r"] * 2)
        triple = _array(" " * 4, ["%r"] * 3)
        cell, fused, last = _pair(" " * 8), _pair(" " * 6), _pair(" " * 4)
        keys += ["criterion_normalization", "normalized_criterion_weights", "normalized_dm_weights"]
        keys += ["cells", "fused_per_dm", "final", "collapsed"]
        values += [
            _str(report.criterion_normalization),
            _object("  ", dms, (
                _object("    ", crits, (crit_weight % (iv.lo, iv.hi) for iv in ws))
                for ws in report.normalized_criterion_weights
            )),
            _object("  ", dms, (dm_weight % (iv.lo, iv.hi) for iv in report.normalized_dm_weights)),
            _object("  ", dms, (
                _object("    ", alts, (
                    _object("      ", crits, (cell % (lt + rt) for lt, rt in row))
                    for row in dm
                ))
                for dm in report.cells
            )),
            _object("  ", dms, (
                _object("    ", alts, (fused % (lt + rt) for lt, rt in dm))
                for dm in report.fused_per_dm
            )),
            _object("  ", alts, (last % (lt + rt) for lt, rt in report.final)),
            _object("  ", alts, (triple % t for t in report.collapsed)),
        ]
    return _object("", _keys(keys), values)
