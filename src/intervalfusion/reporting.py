"""Report rendering: human-readable tables or full-precision JSON.

Human tables round to 4 fractional digits (the formatter rounds to nearest,
ties to even); JSON output carries full float precision and round-trips
bit-exactly through ``json.loads``. Both render a full trace from the
report's triple tables, without building a mass function. A human table
writes a label as its ``repr`` if it is not printable, holds the ranking's
"≻" or starts with a quote, so a label cannot break, forge or split a line.

A report is rendered as a stream of str chunks (:func:`report_chunks`),
each at most one row of a table: a (decision maker, alternative) row of
discounted cells, say, is filled from the discount of that row alone. So
rendering holds one row at a time, not a table, and never builds
``report.cells``.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from io import BytesIO
from itertools import chain, islice, product
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
    ``fmt``, or a full trace of a report with no trace, raises ValueError
    here, before any chunk is made."""
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


def _render_human(report: RankingReport, cell_rows: Iterator | None) -> Iterator[str]:
    e0, e1 = FRAME
    alts = _labels(report.alternatives)

    if cell_rows is not None:
        # Each row is a %-template, its labels' "%" escaped as "%%", filled
        # with the row's floats in order, each + 0.0 as in the summary rows.
        dms, talts, crits = ([x.replace("%", "%%") for x in _labels(labels)]
                             for labels in (report.decision_makers, report.alternatives, report.criteria))
        bpa = ": left (%.4f, %.4f, %.4f)  right (%.4f, %.4f, %.4f)"
        weights = "  ".join([c + " [%.4f, %.4f]" for c in crits]) + "\n"
        cells = [c + bpa for c in crits]
        for title, rows in (
            ("Normalized criterion weights",
             (("  " + dm + ": " + weights, _flat((iv.lo, iv.hi) for iv in ws))
              for dm, ws in zip(dms, report.normalized_criterion_weights))),
            ("Normalized decision-maker weights",
             (("  " + dm + ": [%.4f, %.4f]\n", (iv.lo, iv.hi)) for dm, iv in zip(dms, report.normalized_dm_weights))),
            (f"Discounted interval BPAs ({{{e0}}}, {{{e1}}}, {{{e0}, {e1}}})",
             ((head + ("\n" + head).join(cells) + "\n", _flat(_flat(zip(*pair))))
              for head, pair in zip((f"  {dm} / {alt} / " for dm, alt in product(dms, talts)), cell_rows))),
            ("Fused per decision maker",
             ((f"  {dm} / {alt}{bpa}\n", _flat(pair))
              for (dm, alt), pair in zip(product(dms, talts), _flat(report.fused_per_dm)))),
            ("Final interval BPAs", ((f"  {alt}{bpa}\n", _flat(pair)) for alt, pair in zip(talts, report.final))),
            ("Collapsed BPAs", ((f"  {alt}: (%.4f, %.4f, %.4f) bet=%.4f\n", (*t, bet))
                                for alt, t, bet in zip(talts, report.collapsed, report.bets))),
        ):
            yield title + "\n"
            for template, floats in rows:
                yield template % tuple([x + 0.0 for x in floats])
            yield "\n"

    width = max(len("Alternative"), max(map(len, alts)))
    header = f"bet({e0})"
    yield f"{'Alternative':<{width}}  {header}\n"
    for alt, bet in zip(alts, report.bets):
        # bet + 0.0 normalizes -0.0 away before formatting.
        yield f"{alt:<{width}}  {format(bet + 0.0, '.4f'):>{len(header)}}\n"
    yield "\nRanking: " + " ≻ ".join(_labels(report.ranking)) + "\n"


# --- JSON ---------------------------------------------------------------------
# Laid out as json.dumps(doc, indent=2) lays out doc: one member a line, two
# more spaces a level, ",\n" between members, keys and strings escaped to ASCII
# by json's own function. Floats, all finite, go through repr and %r templates:
# float.__repr__, as json.dumps writes a finite float. Every row of a trace
# table is its key and one template, the same for each row of the table, its
# keys' "%" escaped as "%%", filled with the row's floats in order. Every array
# and object has a member: labels are never empty.


def _json(indent: str, members: Iterable[Iterable[str]], end: str = "") -> Iterator[str]:
    """The chunks of a JSON object that opens on a line at ``indent`` and is
    followed by ``end``. Each member is given as its chunks; the separator
    before it goes into its first one."""
    sep = "{\n" + indent + "  "
    for member in members:
        member = iter(member)
        yield sep + next(member)
        yield from member
        sep = ",\n" + indent + "  "
    yield "\n" + indent + "}" + end


def _text(indent: str, members: Iterable[str], brackets: str = "{}") -> str:
    """A JSON object, or with ``brackets`` "[]" an array, laid out as
    :func:`_json` lays it out, as one string of the rendered ``members``."""
    inner = "\n" + indent + "  "
    return brackets[0] + inner + ("," + inner).join(members) + "\n" + indent + brackets[1]


def _key(label: str, percent: str = "%") -> str:
    return _str(label).replace("%", percent) + ": "


def _template(indent: str, keys: Iterable[str], value: str) -> str:
    """A JSON object template whose every member has the same ``value``."""
    return _text(indent, [key + value for key in keys])


def _floats(indent: str, n: int) -> str:
    """A JSON array template of ``n`` floats."""
    return _text(indent, ["%r"] * n, "[]")


def _pair(indent: str) -> str:
    return _template(indent, map(_key, ("left", "right")), _floats(indent + "  ", 3))


def _render_json(report: RankingReport, mode: str, cell_rows: Iterator | None) -> Iterator[str]:
    alts = [_key(x) for x in report.alternatives]

    def rows(indent: str, keys: Iterable[str], template: str, floats: Iterable[tuple]) -> Iterator[str]:
        """A JSON object of one row a key: ``template`` filled with the tuple of that row's floats."""
        return _json(indent, ([key + template % row] for key, row in zip(keys, floats)))

    def by_dm(template: str, floats: Iterable[tuple]) -> Iterator[str]:
        """A JSON object of a :func:`rows` object of alternatives a decision maker."""
        floats = iter(floats)
        return _json("  ", (chain([dm], rows("    ", alts, template, islice(floats, len(alts)))) for dm in dms))

    members = [
        [_key("report_version") + _str(REPORT_VERSION)],
        [_key("mode") + _str(mode)],
        [_key("frame"), _text("  ", map(_str, FRAME), "[]")],
        [_key("alternatives"), _text("  ", map(_str, report.alternatives), "[]")],
        [_key("bets"), _text("  ", map(str.__add__, alts, map(repr, report.bets)))],
        [_key("ranking"), _text("  ", map(_str, report.ranking), "[]")],
    ]
    if cell_rows is not None:
        dms = [_key(x) for x in report.decision_makers]
        crits = [_key(x, "%%") for x in report.criteria]
        members += [
            [_key("criterion_normalization") + _str(report.criterion_normalization)],
            chain([_key("normalized_criterion_weights")],
                  rows("  ", dms, _template("    ", crits, _floats(" " * 6, 2)),
                       (tuple(_flat((iv.lo, iv.hi) for iv in ws)) for ws in report.normalized_criterion_weights))),
            chain([_key("normalized_dm_weights")],
                  rows("  ", dms, _floats(" " * 4, 2), ((iv.lo, iv.hi) for iv in report.normalized_dm_weights))),
            chain([_key("cells")],
                  by_dm(_template("      ", crits, _pair(" " * 8)),
                        (tuple(_flat(_flat(zip(*pair)))) for pair in cell_rows))),
            # A pair's floats as left + right. tuple() of an iterator resizes a small
            # tuple, and the interpreter keeps each freed one for reuse: one a row.
            chain([_key("fused_per_dm")], by_dm(_pair(" " * 6), (lt + rt for lt, rt in _flat(report.fused_per_dm)))),
            chain([_key("final")], rows("  ", alts, _pair(" " * 4), (lt + rt for lt, rt in report.final))),
            chain([_key("collapsed")], rows("  ", alts, _floats(" " * 4, 3), report.collapsed)),
        ]
    return _json("", members, end="\n")
