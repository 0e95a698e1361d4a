import json
import math
import tracemalloc

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from intervalfusion import (
    DecisionProblem,
    Interval,
    RankingReport,
    emit_report,
    load_problem,
    rank_alternatives,
)
from intervalfusion.errors import IntervalFusionError
from intervalfusion.evidence import FRAME, _settle
from intervalfusion.loading import bundled_dataset_bytes
from intervalfusion.reporting import FULL_TRACE, HUMAN_TABLE, JSON_FORMAT, SUMMARY, report_chunks

from per_object import per_object_rank
from test_collector import document
from test_pipeline import built_directly
from test_properties import trace_triples


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

    def test_ranking_line_splits_one_way(self):
        # unquoted, "S1 ≻ S3" would read as two alternatives, "S2" and "≻ S4"
        # as "S2 ≻" and "S4", and "'S1" and "S3'" ranked next to each other
        # as the quoted "S1 ≻ S3"; a label is a repr exactly when it starts
        # with a quote
        alts = ["S2", "S1 ≻ S3", "'S1", "S3'", "≻ S4"]
        ratings = [(0.2, 0.6, 0.2), (0.6, 0.2, 0.2), (0.5, 0.3, 0.2), (0.4, 0.4, 0.2), (0.1, 0.7, 0.2)]
        report = rank_alternatives(problem((alts, ["C"], ["D"]), [(1, 1)], [[(1, 1)]], [[[r] for r in ratings]]))
        lines = emit_report(report, SUMMARY, HUMAN_TABLE).decode("utf-8").splitlines()
        assert lines[-1] == "Ranking: 'S1 ≻ S3' ≻ \"'S1\" ≻ S3' ≻ S2 ≻ '≻ S4'"
        assert [row.split("  ")[0] for row in lines[1:6]] == ["S2", "'S1 ≻ S3'", "\"'S1\"", "S3'", "'≻ S4'"]
        assert json.loads(emit_report(report, SUMMARY, JSON_FORMAT))["ranking"] == alts[1:4] + alts[:1] + alts[4:]

    def test_unprintable_labels_keep_one_line_per_row(self):
        # a label holding a line break must not forge lines: it is written
        # as its repr, as is one holding the ranking's separator, while any
        # other printable label keeps its bytes
        alts = ["S1", "S2\nRanking: S2 ≻ S1", "S3\rx", "Zürich ≻ Köln", "Zürich"]
        crits, dms = ["C\n1", "C\t2"], ["D\r1", "D\t2"]
        shown = ["S1"] + list(map(repr, alts[1:4])) + ["Zürich"] + list(map(repr, crits + dms))
        ratings = [(0.6, 0.2, 0.2), (0.2, 0.6, 0.2), (0.3, 0.3, 0.4), (0.1, 0.1, 0.8), (0.1, 0.2, 0.7)]
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
# from the per-object fold of plain triples with the suite's own arithmetic
# (per_object_rank in tests/per_object.py), an independent path to the values.


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


def human_reference(report, mode):
    """The human table, written one float at a time with ``format``, each
    float + 0.0 so that -0.0 is written as 0.0000."""

    def f(x):
        return format(x + 0.0, ".4f")

    def tri(t):
        return "(" + ", ".join(map(f, t)) + ")"

    def bpa(pair):
        return f"left {tri(pair[0])}  right {tri(pair[1])}"

    def shown(labels):
        return [repr(x) if not x.isprintable() or "≻" in x or x[:1] in "'\"" else x for x in labels]

    dms, alts, crits = shown(report.decision_makers), shown(report.alternatives), shown(report.criteria)
    lines = []
    if mode == FULL_TRACE:
        lines.append("Normalized criterion weights")
        for dm, ws in zip(dms, report.normalized_criterion_weights):
            lines.append(f"  {dm}: " + "  ".join(f"{c} [{f(w.lo)}, {f(w.hi)}]" for c, w in zip(crits, ws)))
        lines += ["", "Normalized decision-maker weights"]
        lines += [f"  {dm}: [{f(w.lo)}, {f(w.hi)}]" for dm, w in zip(dms, report.normalized_dm_weights)]
        lines += ["", "Discounted interval BPAs ({IS}, {NS}, {IS, NS})"]
        for dm, rows in zip(dms, report.cells):
            for alt, row in zip(alts, rows):
                lines += [f"  {dm} / {alt} / {c}: {bpa(pair)}" for c, pair in zip(crits, row)]
        lines += ["", "Fused per decision maker"]
        for dm, row in zip(dms, report.fused_per_dm):
            lines += [f"  {dm} / {alt}: {bpa(pair)}" for alt, pair in zip(alts, row)]
        lines += ["", "Final interval BPAs"] + [f"  {alt}: {bpa(pair)}" for alt, pair in zip(alts, report.final)]
        lines += ["", "Collapsed BPAs"]
        lines += [f"  {alt}: {tri(t)} bet={f(b)}" for alt, t, b in zip(alts, report.collapsed, report.bets)]
        lines.append("")
    width = max(len("Alternative"), *map(len, alts))
    lines.append(f"{'Alternative':<{width}}  bet(IS)")
    lines += [f"{alt:<{width}}  {f(b):>7}" for alt, b in zip(alts, report.bets)]
    lines += ["", "Ranking: " + " ≻ ".join(shown(report.ranking))]
    return ("\n".join(lines) + "\n").encode()


def assert_writer_matches_reference(problem, report):
    """Both writers against their references: JSON against ``json.dumps``,
    the human table against :func:`human_reference`."""
    for mode in (SUMMARY, FULL_TRACE):
        expected = (json.dumps(reference_doc(report, mode, problem), indent=2) + "\n").encode()
        assert emit_report(report, mode, JSON_FORMAT) == expected
        assert emit_report(report, mode, HUMAN_TABLE) == human_reference(report, mode)


def kernel_negative_zeros(report):
    """How many -0.0 masses the report's trace tables hold."""
    triples = trace_triples(report)
    return sum(x == 0.0 and math.copysign(1.0, x) < 0.0 for t in triples for x in t)


def problem(labels, dm_weights, criterion_weights, ratings):
    alternatives, criteria, decision_makers = labels
    return DecisionProblem(
        alternatives=tuple(alternatives),
        criteria=tuple(criteria),
        decision_makers=tuple(decision_makers),
        dm_weights=tuple(Interval(*w) for w in dm_weights),
        criterion_weights=tuple(tuple(Interval(*w) for w in ws) for ws in criterion_weights),
        ratings=tuple(tuple(tuple(_settle(*[x + 0.0 for x in r]) for r in row) for row in dm) for dm in ratings),
    )


SUBNORMAL = 5e-324
DIGITS_17 = 0.1 + 0.2  # 0.30000000000000004
# labels that json escapes: a quote, a backslash, a newline, non-ASCII text,
# an astral character (a surrogate pair), a control character; and labels
# that look like the writer's own pieces, its %-templates' among them
ESCAPED = (
    'say "when"',
    "back\\slash",
    "new\nline",
    "Zürich ≻ Köln",
    "\U0001F600 astral",
    "tab\there\x01",
    "%r",
    "-0.0",
    "%",
    "%%",
    "%(x)s",
)


class TestWriterMatchesJsonDumps:
    def test_bundled_dataset(self):
        problem_ = load_problem(bundled_dataset_bytes())
        for normalization in ("pooled", "per-dm"):
            assert_writer_matches_reference(
                problem_, rank_alternatives(problem_, criterion_normalization=normalization)
            )

    @pytest.mark.parametrize("shift", range(0, len(ESCAPED), 2))
    def test_escaped_labels_negative_zero_subnormal_and_17_digits(self, shift):
        # eight labels from ESCAPED, turned by ``shift``: every label is in turn
        # an alternative, a criterion and a decision maker
        labels = (ESCAPED[shift:] + ESCAPED[:shift])[:8]
        prob = problem(
            (labels[:3], labels[3:5], labels[5:]),
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
            [[[(0.1 * (i % 8), DIGITS_17 / 2, 1.0 - 0.1 * (i % 8) - DIGITS_17 / 2)] for i in range(len(ESCAPED))]],
        )
        report = rank_alternatives(prob)
        assert kernel_negative_zeros(report) == 0
        assert_writer_matches_reference(prob, report)

    def test_summary_of_a_report_built_directly(self, supplier_report):
        int_bets = {"bets": (1, 0.5, 1, 10**20, 0, 0),
                    "ranking": ("Supplier4", "Supplier1", "Supplier3", "Supplier2", "Supplier5", "Supplier6")}
        for changes in ({}, int_bets):
            report = built_directly(supplier_report, **changes)
            expected = (json.dumps(reference_doc(report, SUMMARY), indent=2) + "\n").encode()
            assert emit_report(report, SUMMARY, JSON_FORMAT) == expected


_label = st.one_of(
    st.sampled_from(ESCAPED), st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=4)
)
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


@st.composite
def direct_reports(draw):
    """Reports built by the constructor, without a problem or a trace, as
    rendering fixtures for a summary: unique labels, finite int or float
    bets, the ranking by bet, ties in input order, weight tables of any
    value shaped like the labels, and any value as the normalization."""

    def labels(n):
        return tuple(draw(st.lists(_label, min_size=n, max_size=n, unique=True)))

    alts, crits, dms = labels(draw(st.integers(1, 5))), labels(draw(st.integers(1, 3))), labels(draw(st.integers(1, 3)))
    bet = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.integers(-10**20, 10**20))
    bets = tuple(draw(st.lists(bet, min_size=len(alts), max_size=len(alts))))
    ranking = tuple(alts[i] for i in sorted(range(len(alts)), key=lambda i: -bets[i]))

    def weights(n):
        return tuple(draw(st.lists(_weight.map(lambda w: Interval(*w)), min_size=n, max_size=n)))

    normalization = draw(st.one_of(st.sampled_from(["pooled", "per-dm"]), st.none(), st.integers(), st.text()))
    crit_weights, dm_weights = tuple(weights(len(crits)) for _ in dms), weights(len(dms))
    return RankingReport(alts, crits, dms, normalization, crit_weights, dm_weights, bets, ranking, None)


_ONE_ROW = RankingReport(("A",), ("C1", "C2"), ("D",), "pooled", ((Interval(0, 0), Interval(0, 1)),), (Interval(0, 0),),
                         (0.5,), ("A",), None)
_ONE_CELL = problem((["A"], ["C"], ["D"]), [(1, 1)], [[(1, 1)]], [[[(0.5, 0.25, 0.25)]]])


def _unique_keys(pairs):
    keys = [key for key, _ in pairs]
    assert len(set(keys)) == len(keys), f"repeated key in {keys}"
    return dict(pairs)


def assert_output_fails_closed(report, modes):
    """Every JSON rendering of ``report`` in ``modes`` parses with no key
    repeated, gives back each bet bit for bit and a ranking of unique labels;
    the human summary has one row per alternative."""
    for mode in modes:
        doc = json.loads(emit_report(report, mode, JSON_FORMAT), object_pairs_hook=_unique_keys)
        assert list(doc["bets"]) == list(report.alternatives)
        assert [float.hex(float(b)) for b in doc["bets"].values()] == [float.hex(float(b)) for b in report.bets]
        assert doc["ranking"] == list(report.ranking)
        assert sorted(doc["ranking"]) == sorted(set(doc["alternatives"])) == sorted(report.alternatives)
    summary = emit_report(report, SUMMARY, HUMAN_TABLE).decode()
    header, *rows, blank, ranking = summary.splitlines()
    assert (header.split(), blank, ranking[:9]) == (["Alternative", "bet(IS)"], "", "Ranking: ")
    assert len(rows) == len(report.alternatives)
    if FULL_TRACE in modes:
        assert emit_report(report, FULL_TRACE, HUMAN_TABLE).decode().endswith("\n\n" + summary)


@settings(max_examples=250, deadline=None)
@given(case=ranked_reports(), direct=direct_reports())
@example(case=(_ONE_CELL, rank_alternatives(_ONE_CELL)), direct=_ONE_ROW)
def test_writer_matches_json_dumps_on_generated_problems(case, direct):
    assert_writer_matches_reference(*case)
    assert_output_fails_closed(case[1], (SUMMARY, FULL_TRACE))
    # a report built by hand, with no trace, as a summary fixture
    expected = (json.dumps(reference_doc(direct, SUMMARY), indent=2) + "\n").encode()
    assert emit_report(direct, SUMMARY, JSON_FORMAT) == expected
    assert emit_report(direct, SUMMARY, HUMAN_TABLE) == human_reference(direct, SUMMARY)
    assert_output_fails_closed(direct, (SUMMARY,))


# --- streaming ------------------------------------------------------------------

#: How much more the render of a full trace may hold at its peak, over what
#: the report keeps, for 400 alternatives than for 100. It holds the label
#: lists and the summary's bets, alternatives and ranking, about 140 bytes an
#: alternative as JSON (40 KiB more for 300 more alternatives), and one row
#: at a time. A JSON writer that fills the cells table from ``report.cells``
#: in one template holds 10 MiB more (the mutant in tests/mutants.py).
RENDER_GROWTH_BOUND = 64 * 1024


def traced_peak(call):
    """The tracemalloc peak of ``call()`` above the memory traced when it
    starts, and its result."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = call()
        return tracemalloc.get_traced_memory()[1] - start, result
    finally:
        tracemalloc.stop()


def consume(chunks):
    """Encode each chunk and drop it, as the CLI writes them; their number."""
    n = 0
    for chunk in chunks:
        chunk.encode()
        n += 1
    return n


@pytest.mark.parametrize("fmt", [HUMAN_TABLE, JSON_FORMAT])
def test_full_trace_renders_in_memory_that_does_not_grow_with_the_rows(fmt):
    # two problems that differ only in their number of alternatives; each
    # report keeps its trace before rendering starts
    reports = [rank_alternatives(load_problem(document(4, n, 10))) for n in (100, 400)]
    stream = [traced_peak(lambda: consume(report_chunks(report, FULL_TRACE, fmt)))[0] for report in reports]
    assert stream[1] - stream[0] < RENDER_GROWTH_BOUND, stream
    for report in reports:
        peak, out = traced_peak(lambda: emit_report(report, FULL_TRACE, fmt))
        assert peak <= 2 * len(out) + RENDER_GROWTH_BOUND, (peak, len(out))
        assert b"".join(chunk.encode() for chunk in report_chunks(report, FULL_TRACE, fmt)) == out


@pytest.mark.parametrize("fmt", [HUMAN_TABLE, JSON_FORMAT])
@pytest.mark.parametrize("mode", [SUMMARY, FULL_TRACE])
def test_chunks_are_rows_and_the_last_ends_the_report(supplier_report, mode, fmt):
    chunks = list(report_chunks(supplier_report, mode, fmt))
    assert "".join(chunks).encode() == emit_report(supplier_report, mode, fmt)
    assert chunks[-1].endswith("\n") and all(chunks)
    # a chunk holds at most one row: one (decision maker, alternative) row
    # of four discounted cells
    left = "left (" if fmt == HUMAN_TABLE else '"left": ['
    assert max(chunk.count(left) for chunk in chunks) == (4 if mode == FULL_TRACE else 0)
