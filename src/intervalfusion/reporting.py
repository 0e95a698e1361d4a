"""Report rendering: human-readable tables or full-precision JSON.

Human tables round to 4 fractional digits (the formatter rounds to nearest,
ties to even); JSON output carries full float precision and round-trips
bit-exactly through ``json.loads``.
"""

from __future__ import annotations

import json

from .evidence import FRAME
from .pipeline import IntervalBPA, RankingReport

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
    if fmt == JSON_FORMAT:
        text = json.dumps(_report_dict(report, mode), indent=2)
    else:
        text = _render_human(report, mode)
    return (text + "\n").encode("utf-8")


def _fmt(x: float) -> str:
    # x + 0.0 normalizes -0.0 away before formatting.
    return format(x + 0.0, ".4f")


def _triple_str(triple: tuple[float, float, float]) -> str:
    return "(" + ", ".join(_fmt(x) for x in triple) + ")"


def _interval_str(iv) -> str:
    return f"[{_fmt(iv.lo)}, {_fmt(iv.hi)}]"


def _bpa_str(ib: IntervalBPA) -> str:
    lt, rt = ib.triples()
    return f"left {_triple_str(lt)}  right {_triple_str(rt)}"


def _render_human(report: RankingReport, mode: str) -> str:
    lines: list[str] = []
    e0, e1 = FRAME

    if mode == FULL_TRACE:
        lines.append("Normalized criterion weights")
        for d, dm in enumerate(report.decision_makers):
            cells = "  ".join(
                f"{crit} {_interval_str(report.normalized_criterion_weights[d][c])}"
                for c, crit in enumerate(report.criteria)
            )
            lines.append(f"  {dm}: {cells}")
        lines.append("")
        lines.append("Normalized decision-maker weights")
        for d, dm in enumerate(report.decision_makers):
            lines.append(f"  {dm}: {_interval_str(report.normalized_dm_weights[d])}")
        lines.append("")

        lines.append(f"Discounted interval BPAs ({{{e0}}}, {{{e1}}}, {{{e0}, {e1}}})")
        for d, dm in enumerate(report.decision_makers):
            for a, alt in enumerate(report.alternatives):
                for c, crit in enumerate(report.criteria):
                    lines.append(f"  {dm} / {alt} / {crit}: {_bpa_str(report.cell_bpas[d][a][c])}")
        lines.append("")
        lines.append("Fused per decision maker")
        for d, dm in enumerate(report.decision_makers):
            for a, alt in enumerate(report.alternatives):
                lines.append(f"  {dm} / {alt}: {_bpa_str(report.dm_fused[d][a])}")
        lines.append("")
        lines.append("Final interval BPAs")
        for a, alt in enumerate(report.alternatives):
            lines.append(f"  {alt}: {_bpa_str(report.final_bpas[a])}")
        lines.append("")
        lines.append("Collapsed BPAs")
        for a, alt in enumerate(report.alternatives):
            lines.append(f"  {alt}: {_triple_str(report.collapsed[a].masses)} bet={_fmt(report.bets[a])}")
        lines.append("")

    width = max(len("Alternative"), max(len(a) for a in report.alternatives))
    header = f"bet({e0})"
    lines.append(f"{'Alternative':<{width}}  {header}")
    for a, alt in enumerate(report.alternatives):
        lines.append(f"{alt:<{width}}  {_fmt(report.bets[a]):>{len(header)}}")
    lines.append("")
    lines.append("Ranking: " + " ≻ ".join(report.ranking))
    return "\n".join(lines)


def _bpa_dict(ib: IntervalBPA) -> dict:
    lt, rt = ib.triples()
    return {"left": list(lt), "right": list(rt)}


def _report_dict(report: RankingReport, mode: str) -> dict:
    doc: dict = {
        "report_version": REPORT_VERSION,
        "mode": mode,
        "frame": list(FRAME),
        "alternatives": list(report.alternatives),
        "bets": {alt: report.bets[a] for a, alt in enumerate(report.alternatives)},
        "ranking": list(report.ranking),
    }
    if mode == FULL_TRACE:
        doc["criterion_normalization"] = report.criterion_normalization
        doc["normalized_criterion_weights"] = {
            dm: {
                crit: [iv.lo, iv.hi]
                for crit, iv in zip(report.criteria, report.normalized_criterion_weights[d])
            }
            for d, dm in enumerate(report.decision_makers)
        }
        doc["normalized_dm_weights"] = {
            dm: [report.normalized_dm_weights[d].lo, report.normalized_dm_weights[d].hi]
            for d, dm in enumerate(report.decision_makers)
        }
        doc["cells"] = {
            dm: {
                alt: {
                    crit: _bpa_dict(report.cell_bpas[d][a][c])
                    for c, crit in enumerate(report.criteria)
                }
                for a, alt in enumerate(report.alternatives)
            }
            for d, dm in enumerate(report.decision_makers)
        }
        doc["fused_per_dm"] = {
            dm: {alt: _bpa_dict(report.dm_fused[d][a]) for a, alt in enumerate(report.alternatives)}
            for d, dm in enumerate(report.decision_makers)
        }
        doc["final"] = {alt: _bpa_dict(report.final_bpas[a]) for a, alt in enumerate(report.alternatives)}
        doc["collapsed"] = {
            alt: list(report.collapsed[a].masses) for a, alt in enumerate(report.alternatives)
        }
    return doc
