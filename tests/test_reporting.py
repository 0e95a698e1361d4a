import json
import math

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from intervalfusion import (
    DecisionProblem,
    Interval,
    MassFunction,
    emit_report,
    load_problem,
    rank_alternatives,
)
from intervalfusion.errors import IntervalFusionError
from intervalfusion.evidence import FRAME
from intervalfusion.loading import bundled_dataset_bytes
from intervalfusion.reporting import FULL_TRACE, HUMAN_TABLE, JSON_FORMAT, SUMMARY

from test_pipeline import built_directly
from test_properties import per_object_rank, trace_triples


class TestHumanTables:
    def test_summary_contains_bets_and_ranking(self, supplier_report):
        text = emit_report(supplier_report, SUMMARY, HUMAN_TABLE).decode("utf-8")
        assert "bet(IS)" in text
        assert "Supplier1     0.9857" in text
        assert (
            "Ranking: Supplier4 ≻ Supplier1 ≻ Supplier2 ≻ "
            "Supplier3 ≻ Supplier6 ≻ Supplier5" in text
        )

    def test_summary_has_no_trace_sections(self, supplier_report):
        text = emit_report(supplier_report, SUMMARY, HUMAN_TABLE).decode("utf-8")
        assert "Normalized" not in text
        assert "Collapsed" not in text

    def test_full_trace_sections(self, supplier_report):
        text = emit_report(supplier_report, FULL_TRACE, HUMAN_TABLE).decode("utf-8")
        for section in (
            "Normalized criterion weights",
            "Normalized decision-maker weights",
            "Discounted interval BPAs",
            "Fused per decision maker",
            "Final interval BPAs",
            "Collapsed BPAs",
            "Ranking:",
        ):
            assert section in text

    def test_full_trace_final_row(self, supplier_report):
        text = emit_report(supplier_report, FULL_TRACE, HUMAN_TABLE).decode("utf-8")
        assert "Supplier1: (0.9833, 0.0119, 0.0048) bet=0.9857" in text

    def test_four_fractional_digits(self, supplier_report):
        text = emit_report(supplier_report, FULL_TRACE, HUMAN_TABLE).decode("utf-8")
        assert "[0.2857, 0.5000]" in text
        # no negative zeros anywhere
        assert "-0.0000" not in text

    def test_unprintable_labels_keep_one_line_per_row(self):
        # a label holding a line break must not forge lines: it is written
        # as its repr, while a printable label keeps its bytes
        alts = ["S1", "S2\nRanking: S2 ≻ S1", "S3\rx", "Zürich ≻ Köln"]
        crits, dms = ["C\n1", "C\t2"], ["D\r1", "D\t2"]
        shown = ["S1", repr(alts[1]), repr(alts[2]), alts[3]] + list(map(repr, crits + dms))
        ratings = [(0.6, 0.2, 0.2), (0.2, 0.6, 0.2), (0.3, 0.3, 0.4), (0.1, 0.1, 0.8)]
        report = rank_alternatives(problem(
            (alts, crits, dms), [(1, 1)] * 2, [[(0.5, 1), (1, 1)]] * 2, [[[r, r] for r in ratings]] * 2
        ))
        d, a, c = len(dms), len(alts), len(crits)
        # the summary: a header, a row per alternative, a blank line, the
        # ranking; the trace adds 6 titled sections and their rows
        for mode, n_lines in ((SUMMARY, a + 3), (FULL_TRACE, a + 3 + 12 + 2 * d + d * a * c + d * a + 2 * a)):
            text = emit_report(report, mode, HUMAN_TABLE).decode("utf-8")
            lines = text.splitlines()
            assert len(lines) == n_lines
            assert [x for x in lines if x.startswith("Ranking:")] == [lines[-1]]
            for label, row in zip(shown, lines[-a - 2 : -2]):
                assert row.startswith(label + " ")
            assert all(label in text for label in shown[: a if mode == SUMMARY else None])
        assert json.loads(emit_report(report, FULL_TRACE, JSON_FORMAT))["alternatives"] == alts

    def test_invalid_mode_and_format(self, supplier_report):
        with pytest.raises(ValueError):
            emit_report(supplier_report, "verbose", HUMAN_TABLE)
        with pytest.raises(ValueError):
            emit_report(supplier_report, SUMMARY, "xml")


class TestJsonReports:
    def test_round_trip_bets_bit_identical(self, supplier_report):
        emitted = emit_report(supplier_report, SUMMARY, JSON_FORMAT)
        doc = json.loads(emitted)
        for a, alt in enumerate(supplier_report.alternatives):
            assert doc["bets"][alt] == supplier_report.bets[a]
        assert doc["ranking"] == list(supplier_report.ranking)

    def test_summary_has_no_trace(self, supplier_report):
        doc = json.loads(emit_report(supplier_report, SUMMARY, JSON_FORMAT))
        assert "cells" not in doc
        assert doc["mode"] == "summary"
        assert doc["report_version"] == "1"

    def test_full_trace_carries_everything(self, supplier_report):
        doc = json.loads(emit_report(supplier_report, FULL_TRACE, JSON_FORMAT))
        assert set(doc["cells"]) == set(supplier_report.decision_makers)
        assert set(doc["final"]) == set(supplier_report.alternatives)
        cell = doc["cells"]["DM1"]["Supplier1"]["C1"]
        left, right = supplier_report.cells[0][0][0]
        assert cell["left"] == list(left)
        assert cell["right"] == list(right)
        triple = doc["collapsed"]["Supplier1"]
        assert triple == pytest.approx([0.9833, 0.0119, 0.0048], abs=2e-3)

    def test_full_precision_normalized_weights(self, supplier_report):
        doc = json.loads(emit_report(supplier_report, FULL_TRACE, JSON_FORMAT))
        lo, hi = doc["normalized_dm_weights"]["DM1"]
        assert lo == supplier_report.normalized_dm_weights[0].lo
        assert hi == supplier_report.normalized_dm_weights[0].hi


# --- the JSON writer against json.dumps ---------------------------------------
#
# reference_doc is the document the package rendered with
# json.dumps(doc, indent=2) before it wrote JSON directly; it takes the trace
# from the per-object fold over MassFunction values (per_object_rank), an
# independent path to the values.


def _bpa_dict(pair):
    left, right = pair
    return {"left": list(left), "right": list(right)}


def reference_doc(report, mode, problem=None):
    doc = {
        "report_version": "1",
        "mode": mode,
        "frame": list(FRAME),
        "alternatives": list(report.alternatives),
        "bets": {alt: report.bets[a] for a, alt in enumerate(report.alternatives)},
        "ranking": list(report.ranking),
    }
    if mode == FULL_TRACE:
        trace = per_object_rank(problem, report.criterion_normalization)
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
                    crit: _bpa_dict(trace["cells"][d][a][c])
                    for c, crit in enumerate(report.criteria)
                }
                for a, alt in enumerate(report.alternatives)
            }
            for d, dm in enumerate(report.decision_makers)
        }
        doc["fused_per_dm"] = {
            dm: {alt: _bpa_dict(trace["fused_per_dm"][d][a]) for a, alt in enumerate(report.alternatives)}
            for d, dm in enumerate(report.decision_makers)
        }
        doc["final"] = {alt: _bpa_dict(trace["final"][a]) for a, alt in enumerate(report.alternatives)}
        doc["collapsed"] = {
            alt: list(trace["collapsed"][a]) for a, alt in enumerate(report.alternatives)
        }
    return doc


def assert_writer_matches_reference(problem, report):
    for mode in (SUMMARY, FULL_TRACE):
        expected = (json.dumps(reference_doc(report, mode, problem), indent=2) + "\n").encode()
        assert emit_report(report, mode, JSON_FORMAT) == expected


def kernel_negative_zeros(report):
    """How many -0.0 masses the report's trace tables hold."""
    triples = trace_triples(report)
    return sum(x == 0.0 and math.copysign(1.0, x) < 0.0 for t in triples for x in t)


def problem(labels, dm_weights, criterion_weights, ratings):
    alternatives, criteria, decision_makers = labels
    return DecisionProblem(
        alternatives=alternatives,
        criteria=criteria,
        decision_makers=decision_makers,
        dm_weights=[Interval(*w) for w in dm_weights],
        criterion_weights=[[Interval(*w) for w in ws] for ws in criterion_weights],
        ratings=[[[MassFunction(r) for r in row] for row in dm] for dm in ratings],
    )


SUBNORMAL = 5e-324
DIGITS_17 = 0.1 + 0.2  # 0.30000000000000004
# labels that json escapes: a quote, a backslash, a newline, non-ASCII text,
# an astral character (a surrogate pair), a control character; and labels
# that look like the writer's own pieces
ESCAPED = (
    'say "when"',
    "back\\slash",
    "new\nline",
    "Zürich ≻ Köln",
    "\U0001F600 astral",
    "tab\there\x01",
    "%r",
    "-0.0",
)


class TestWriterMatchesJsonDumps:
    def test_bundled_dataset(self):
        problem_ = load_problem(bundled_dataset_bytes())
        for normalization in ("pooled", "per-dm"):
            assert_writer_matches_reference(
                problem_, rank_alternatives(problem_, criterion_normalization=normalization)
            )

    def test_escaped_labels_negative_zero_subnormal_and_17_digits(self):
        prob = problem(
            (ESCAPED[:3], ESCAPED[3:5], ESCAPED[5:]),
            [(-0.0, 0.5), (DIGITS_17, 1.0), (SUBNORMAL, 0.7)],
            [[(-0.0, 1.0), (0.25, DIGITS_17)], [(SUBNORMAL, 0.5), (-0.0, -0.0)],
             [(0.1, 0.9), (1e-310, 0.2)]],
            [
                [[(SUBNORMAL, 0.5, 0.5 - SUBNORMAL), (DIGITS_17, 0.1, 0.6 - 2 ** -53)],
                 [(0.0, 1.0, 0.0), (0.12345678901234568, 0.0, 0.8765432109876543)],
                 [(1.0, 0.0, 0.0), (0.0, 0.0, 1.0)]],
            ] * 3,
        )
        for normalization in ("pooled", "per-dm"):
            report = rank_alternatives(prob, criterion_normalization=normalization)
            assert report.normalized_dm_weights[0].lo == 0.0
            assert math.copysign(1.0, report.normalized_dm_weights[0].lo) == -1.0
            # a -0.0 weight discounts to +0.0 masses, as the fold gives them
            assert kernel_negative_zeros(report) == 0
            assert_writer_matches_reference(prob, report)
            assert b"-0.0" in emit_report(report, FULL_TRACE, JSON_FORMAT)

    def test_one_by_one_by_one(self):
        for weight in ((-0.0, 1.0), (SUBNORMAL, SUBNORMAL), (0.25, DIGITS_17)):
            for dm_weight in ((-0.0, 1.0), (1.0, 1.0)):
                prob = problem((["A"], ["C"], ["D"]), [dm_weight], [[weight]], [[[(0.6, 0.3, 0.1)]]])
                assert_writer_matches_reference(prob, rank_alternatives(prob))

    def test_one_by_n_by_one_with_a_negative_zero_weight(self):
        # one criterion and one decision maker: each cell is its own fused
        # row and final part, so a -0.0 mass would reach every table
        prob = problem(
            (list(ESCAPED), ["C"], ["D"]),
            [(0.5, 1.0)],
            [[(-0.0, 1.0)]],
            [[[(0.1 * i, DIGITS_17 / 2, 1.0 - 0.1 * i - DIGITS_17 / 2)] for i in range(8)]],
        )
        report = rank_alternatives(prob)
        assert kernel_negative_zeros(report) == 0
        assert_writer_matches_reference(prob, report)

    def test_summary_of_a_report_built_directly(self, supplier_report):
        report = built_directly(supplier_report)
        expected = (json.dumps(reference_doc(report, SUMMARY), indent=2) + "\n").encode()
        assert emit_report(report, SUMMARY, JSON_FORMAT) == expected


_label = st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=4)
_value = st.one_of(
    st.sampled_from([0.0, -0.0, SUBNORMAL, 1e-310, DIGITS_17, 0.12345678901234568, 1.0]),
    st.floats(0.0, 1.0),
)
_weight = st.tuples(_value, _value).map(sorted)


@st.composite
def _rating(draw):
    first = draw(_value) + 0.0
    second = draw(_value) * (1.0 - first) + 0.0
    return first, second, 1.0 - first - second


@st.composite
def ranked_reports(draw):
    n_dm, n_alt, n_crit = draw(st.integers(1, 3)), draw(st.integers(1, 4)), draw(st.integers(1, 3))

    def labels(n):
        return draw(st.lists(_label, min_size=n, max_size=n, unique=True))

    def grid(strategy, *shape):
        if not shape:
            return draw(strategy)
        return [grid(strategy, *shape[1:]) for _ in range(shape[0])]

    try:
        prob = problem(
            (labels(n_alt), labels(n_crit), labels(n_dm)),
            grid(_weight, n_dm),
            grid(_weight, n_dm, n_crit),
            grid(_rating(), n_dm, n_alt, n_crit),
        )
        normalization = draw(st.sampled_from(["pooled", "per-dm"]))
        return prob, rank_alternatives(prob, criterion_normalization=normalization)
    except IntervalFusionError:  # all-zero weights, total conflict
        assume(False)


@settings(max_examples=250, deadline=None)
@given(case=ranked_reports())
def test_writer_matches_json_dumps_on_generated_problems(case):
    assert_writer_matches_reference(*case)
