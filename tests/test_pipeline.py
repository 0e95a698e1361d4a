import math

import pytest

from intervalfusion import (
    FULL_TRACE,
    HUMAN_TABLE,
    JSON_FORMAT,
    SUMMARY,
    DecisionProblem,
    Interval,
    IntervalBPA,
    MassFunction,
    PER_DM,
    bet_ideal,
    collapse_interval_bpa,
    discount_interval_bpa,
    discount_to_interval_bpa,
    emit_report,
    fuse_interval_bpas,
    normalize_weight_group,
    rank_alternatives,
)
from intervalfusion.errors import (
    AllZeroWeights,
    EmptyEvidenceList,
    InvalidWeight,
    TotalConflict,
    ValidationError,
)

from reference import brute_pignistic
from test_properties import TABLES, by_labels, trace_triples

def triple(a, b, c):
    return MassFunction((a, b, c))


def bpa(left, right):
    return IntervalBPA(triple(*left), triple(*right))


def assert_triple(m, expected, abs=1e-9):
    assert m.masses == pytest.approx(expected, abs=abs)


class TestNormalizeWeightGroup:
    def test_pooled_criterion_weights(self, golden):
        raw = {
            "DM1": [(0.20, 0.35), (0.30, 0.55), (0.05, 0.30), (0.25, 0.50)],
            "DM2": [(0.25, 0.45), (0.20, 0.55), (0.05, 0.30), (0.20, 0.60)],
            "DM3": [(0.20, 0.55), (0.20, 0.70), (0.10, 0.40), (0.20, 0.60)],
        }
        flat = [Interval(*w) for ws in raw.values() for w in ws]
        normalized = normalize_weight_group(flat)
        expected = [
            pair
            for dm in ("DM1", "DM2", "DM3")
            for pair in golden["normalized_criterion_weights"][dm]
        ]
        for got, (lo, hi) in zip(normalized, expected):
            assert got.lo == pytest.approx(lo, abs=1e-12)
            assert got.hi == pytest.approx(hi, abs=1e-12)
        # the group maximum 0.70 maps to exactly 1
        assert max(w.hi for w in normalized) == 1.0

    def test_dm_weights(self):
        got = normalize_weight_group(
            [Interval(0.20, 0.45), Interval(0.35, 0.55), Interval(0.70, 0.95)]
        )
        expected = [(0.2105, 0.4737), (0.3684, 0.5789), (0.7368, 1.0)]
        for iv, (lo, hi) in zip(got, expected):
            assert iv.lo == pytest.approx(lo, abs=1e-4)
            assert iv.hi == pytest.approx(hi, abs=1e-4)

    def test_single_weight_self_normalizes(self):
        (got,) = normalize_weight_group([Interval(0.4, 0.4)])
        assert got == Interval(1.0, 1.0)

    def test_all_zero_rejected(self):
        with pytest.raises(AllZeroWeights):
            normalize_weight_group([Interval(0, 0), Interval(0, 0)])

    def test_empty_rejected(self):
        with pytest.raises(AllZeroWeights):
            normalize_weight_group([])

    def test_negative_rejected(self):
        with pytest.raises(InvalidWeight):
            normalize_weight_group([Interval(-0.1, 0.5)])


class TestDiscountToIntervalBPA:
    def test_worked_cell(self):
        m = triple(0.60, 0.20, 0.20)
        got = discount_to_interval_bpa(m, Interval(0.2857, 0.5))
        assert_triple(got.left, (0.1714, 0.0571, 0.7715), abs=1e-4)
        assert_triple(got.right, (0.3, 0.1, 0.6), abs=1e-4)

    def test_full_reliability_is_identity_exact(self):
        m = triple(0.60, 0.20, 0.20)
        got = discount_to_interval_bpa(m, Interval(1, 1))
        assert got.left == m
        assert got.right == m

    def test_zero_weight_is_vacuous_exact(self):
        m = triple(0.60, 0.20, 0.20)
        got = discount_to_interval_bpa(m, Interval(0, 0))
        assert got.left == MassFunction.vacuous()
        assert got.right == MassFunction.vacuous()

    @pytest.mark.parametrize("w", [(-0.1, 0.5), (0.5, 1.2)])
    def test_invalid_weight(self, w):
        with pytest.raises(InvalidWeight):
            discount_to_interval_bpa(triple(0.6, 0.2, 0.2), Interval(*w))

    def test_ordering_of_fresh_parts(self):
        got = discount_to_interval_bpa(triple(0.6, 0.2, 0.2), Interval(0.3, 0.8))
        lt, rt = got.left.masses, got.right.masses
        assert lt[0] <= rt[0]
        assert lt[1] <= rt[1]

    def test_complement_relation_exact(self):
        got = discount_to_interval_bpa(triple(0.6429, 0.0714, 0.2857), Interval(0.25, 0.75))
        for part in (got.left, got.right):
            a, b, c = part.masses
            assert c == pytest.approx(1.0 - a - b, abs=1e-12)


class TestDiscountIntervalBPA:
    def test_dm_level_row(self):
        ib = bpa((0.5133, 0.0980, 0.3887), (0.8009, 0.0987, 0.1004))
        got = discount_interval_bpa(ib, Interval(0.2105, 0.4739))
        assert_triple(got.left, (0.1080, 0.0206, 0.8714), abs=2e-4)
        assert_triple(got.right, (0.3795, 0.0468, 0.5737), abs=2e-4)

    def test_identity(self):
        # exact identity requires complement-consistent parts (c == 1 - a - b
        # bitwise), which is how every part produced by the pipeline is built
        ib = IntervalBPA(
            triple(0.5133, 0.0980, 1.0 - 0.5133 - 0.0980),
            triple(0.8009, 0.0987, 1.0 - 0.8009 - 0.0987),
        )
        got = discount_interval_bpa(ib, Interval(1, 1))
        assert got == ib

    def test_zero_reliability(self):
        ib = bpa((0.5133, 0.0980, 0.3887), (0.8009, 0.0987, 0.1004))
        got = discount_interval_bpa(ib, Interval(0, 0))
        assert got.left == MassFunction.vacuous()
        assert got.right == MassFunction.vacuous()


class TestFuseAndCollapse:
    def test_fuse_across_decision_makers(self):
        parts = [
            bpa((0.1080, 0.0206, 0.8714), (0.3795, 0.0468, 0.5737)),
            bpa((0.1659, 0.0416, 0.7925), (0.4694, 0.0734, 0.4572)),
            bpa((0.3479, 0.0515, 0.6006), (0.9206, 0.0456, 0.0338)),
        ]
        got = fuse_interval_bpas(parts)
        assert_triple(got.left, (0.4950, 0.0733, 0.4317), abs=2e-3)
        assert_triple(got.right, (0.9696, 0.0201, 0.0103), abs=2e-3)

    def test_fuse_single_is_identity(self):
        ib = bpa((0.5, 0.2, 0.3), (0.7, 0.1, 0.2))
        assert fuse_interval_bpas([ib]) == ib

    def test_fuse_empty_rejected(self):
        with pytest.raises(EmptyEvidenceList):
            fuse_interval_bpas([])

    def test_collapse_final_row(self):
        ib = bpa((0.4950, 0.0733, 0.4317), (0.9696, 0.0201, 0.0103))
        got = collapse_interval_bpa(ib)
        assert_triple(got, (0.9833, 0.0119, 0.0048), abs=2e-3)

    def test_collapse_is_self_reinforcing(self):
        m = triple(0.6, 0.2, 0.2)
        got = collapse_interval_bpa(IntervalBPA(m, m))
        assert got == m.combine(m)
        assert got != m

    def test_collapse_with_vacuous_left(self):
        m = triple(0.6, 0.2, 0.2)
        got = collapse_interval_bpa(IntervalBPA(MassFunction.vacuous(), m))
        assert got == m

    def test_collapse_total_conflict(self):
        ib = IntervalBPA(triple(1.0, 0.0, 0.0), triple(0.0, 1.0, 0.0))
        with pytest.raises(TotalConflict):
            collapse_interval_bpa(ib)


def build_problem(dm_weights, criterion_weights, ratings, **kw):
    n_dm = len(dm_weights)
    n_alt = len(ratings[0])
    n_crit = len(criterion_weights[0])
    return DecisionProblem(
        alternatives=tuple(f"A{i+1}" for i in range(n_alt)),
        criteria=tuple(f"C{i+1}" for i in range(n_crit)),
        decision_makers=tuple(f"DM{i+1}" for i in range(n_dm)),
        dm_weights=tuple(Interval(*w) for w in dm_weights),
        criterion_weights=tuple(tuple(Interval(*w) for w in ws) for ws in criterion_weights),
        ratings=tuple(tuple(tuple(triple(*r) for r in row) for row in dm) for dm in ratings),
        **kw,
    )


class TestDecisionProblem:
    def test_shape_checks(self):
        with pytest.raises(ValidationError):
            build_problem(
                [(1, 1)],
                [[(1, 1), (1, 1)]],
                [[[(0.6, 0.2, 0.2)]]],  # one rating but two criteria
            )

    def test_duplicate_labels(self):
        with pytest.raises(ValidationError):
            DecisionProblem(
                alternatives=("A", "A"),
                criteria=("C",),
                decision_makers=("D",),
                dm_weights=(Interval(1, 1),),
                criterion_weights=((Interval(1, 1),),),
                ratings=(((triple(0.6, 0.2, 0.2),), (triple(0.6, 0.2, 0.2),)),),
            )

    def test_negative_weight(self):
        with pytest.raises(InvalidWeight):
            build_problem(
                [(-0.5, 1)], [[(1, 1)]], [[[(0.6, 0.2, 0.2)]]]
            )

    def test_all_zero_dm_weights(self):
        with pytest.raises(AllZeroWeights):
            build_problem([(0, 0)], [[(1, 1)]], [[[(0.6, 0.2, 0.2)]]])


class TestRankAlternatives:
    def test_supplier_dataset_matches_golden(self, supplier_problem, supplier_report, golden):
        report = supplier_report
        assert list(report.ranking) == golden["ranking"]
        for d, dm in enumerate(report.decision_makers):
            for c, crit in enumerate(report.criteria):
                lo, hi = golden["normalized_criterion_weights"][dm][c]
                got = report.normalized_criterion_weights[d][c]
                assert got.lo == pytest.approx(lo, abs=1e-9)
                assert got.hi == pytest.approx(hi, abs=1e-9)
            lo, hi = golden["normalized_dm_weights"][dm]
            got = report.normalized_dm_weights[d]
            assert got.lo == pytest.approx(lo, abs=1e-9)
            assert got.hi == pytest.approx(hi, abs=1e-9)
        def assert_pair(pair, expected):
            left, right = pair
            assert left == pytest.approx(tuple(expected["left"]), abs=1e-9)
            assert right == pytest.approx(tuple(expected["right"]), abs=1e-9)

        for d, dm in enumerate(report.decision_makers):
            for a, alt in enumerate(report.alternatives):
                for c, crit in enumerate(report.criteria):
                    assert_pair(report.cells[d][a][c], golden["cells"][dm][alt][crit])
                assert_pair(report.fused_per_dm[d][a], golden["per_dm_fused"][dm][alt])
        for a, alt in enumerate(report.alternatives):
            assert_pair(report.final[a], golden["final"][alt])
            assert report.collapsed[a] == pytest.approx(tuple(golden["collapsed"][alt]), abs=1e-9)
            assert report.bets[a] == pytest.approx(golden["bets"][alt], abs=1e-9)

    def test_bet_matches_general_pignistic(self, supplier_report):
        for a, t in enumerate(supplier_report.collapsed):
            expected = brute_pignistic(("IS", "NS"), by_labels(t))["IS"]
            assert supplier_report.bets[a] == pytest.approx(expected, abs=1e-12)

    def test_bets_over_two_hypotheses_sum_to_one(self, supplier_report):
        for a, (_, ns, full) in enumerate(supplier_report.collapsed):
            assert supplier_report.bets[a] + ns + full / 2.0 == pytest.approx(1.0, abs=1e-12)

    def test_every_intermediate_part_is_valid(self, supplier_report):
        def check(t):
            assert sum(t) == pytest.approx(1.0, abs=1e-9)
            # non-negative, and a zero mass is +0.0
            assert all(v >= 0.0 and math.copysign(1.0, v) == 1.0 for v in t)

        for t in trace_triples(supplier_report):
            check(t)

    def test_deterministic(self, supplier_problem, supplier_report):
        again = rank_alternatives(supplier_problem)
        assert again == supplier_report

    def test_trivial_single_source_pipeline(self):
        # one decision maker, one criterion, unit weights: the pipeline is
        # the self-collapse of each rating
        ratings = [(0.6, 0.2, 0.2), (0.2, 0.6, 0.2), (0.5, 0.3, 0.2)]
        problem = build_problem(
            [(1, 1)],
            [[(1, 1)]],
            [[[r] for r in ratings]],
        )
        report = rank_alternatives(problem)
        for i, r in enumerate(ratings):
            m = triple(*r)
            expected = bet_ideal(m.combine(m))
            assert report.bets[i] == pytest.approx(expected, abs=1e-12)

    def test_ties_break_by_input_order(self):
        ratings = [(0.5, 0.3, 0.2), (0.5, 0.3, 0.2)]
        problem = build_problem([(1, 1)], [[(1, 1)]], [[[r] for r in ratings]])
        report = rank_alternatives(problem)
        assert report.bets[0] == report.bets[1]
        assert report.ranking == ("A1", "A2")

    def test_per_dm_normalization_flag(self):
        problem = build_problem(
            [(1, 1), (1, 1)],
            [[(0.2, 0.4), (0.1, 0.5)], [(0.3, 0.8), (0.2, 0.4)]],
            [
                [[(0.6, 0.2, 0.2), (0.5, 0.3, 0.2)]],
                [[(0.4, 0.4, 0.2), (0.3, 0.5, 0.2)]],
            ],
        )
        pooled = rank_alternatives(problem)
        per_dm = rank_alternatives(problem, criterion_normalization=PER_DM)
        # pooled: every weight divided by the global 0.8
        assert pooled.normalized_criterion_weights[0][0].lo == pytest.approx(0.25)
        # per-dm: DM1's group maximum is 0.5
        assert per_dm.normalized_criterion_weights[0][0].lo == pytest.approx(0.4)
        assert per_dm.normalized_criterion_weights[1][0].hi == pytest.approx(1.0)

    def test_per_dm_all_zero_group_names_decision_maker(self):
        # passes construction (the pooled group is positive) but the per-dm
        # mode cannot normalize DM1's own all-zero group
        problem = build_problem(
            [(1, 1), (1, 1)],
            [[(0.0, 0.0)], [(0.5, 0.5)]],
            [
                [[(0.6, 0.2, 0.2)], [(0.3, 0.5, 0.2)]],
                [[(0.4, 0.4, 0.2)], [(0.2, 0.6, 0.2)]],
            ],
        )
        assert rank_alternatives(problem).ranking  # pooled mode is fine
        with pytest.raises(AllZeroWeights) as err:
            rank_alternatives(problem, criterion_normalization=PER_DM)
        assert "DM1" in str(err.value)

    def test_unknown_normalization_mode(self):
        problem = build_problem([(1, 1)], [[(1, 1)]], [[[(0.6, 0.2, 0.2)]]])
        with pytest.raises(ValueError):
            rank_alternatives(problem, criterion_normalization="global")

    def test_total_conflict_names_coordinates(self):
        # two fully contradictory certain ratings under unit weights conflict
        # while fusing across criteria
        problem = build_problem(
            [(1, 1)],
            [[(1, 1), (1, 1)]],
            [[[(1.0, 0.0, 0.0), (0.0, 1.0, 0.0)]]],
        )
        with pytest.raises(TotalConflict) as err:
            rank_alternatives(problem)
        message = str(err.value)
        assert "DM1" in message
        assert "A1" in message

    def test_report_invariants_enforced(self, supplier_report):
        with pytest.raises(ValidationError):
            RankingReport = type(supplier_report)
            RankingReport(
                alternatives=supplier_report.alternatives,
                criteria=supplier_report.criteria,
                decision_makers=supplier_report.decision_makers,
                criterion_normalization=supplier_report.criterion_normalization,
                normalized_criterion_weights=supplier_report.normalized_criterion_weights,
                normalized_dm_weights=supplier_report.normalized_dm_weights,
                bets=supplier_report.bets,
                ranking=supplier_report.alternatives,  # not sorted by bet
            )

    def test_bet_ideal_shortcut(self):
        m = triple(0.9833, 0.0119, 0.0048)
        assert bet_ideal(m) == pytest.approx(0.9833 + 0.0048 / 2, abs=1e-12)


def built_directly(report):
    """A copy of ``report`` made by its constructor, without a problem."""
    fields = ("alternatives", "criteria", "decision_makers", "criterion_normalization",
              "normalized_criterion_weights", "normalized_dm_weights", "bets", "ranking")
    return type(report)(**{f: getattr(report, f) for f in fields})


@pytest.fixture
def mass_builds(monkeypatch):
    """The MassFunction values built while the test runs; every one is built
    through its __post_init__."""
    built = []
    post_init = MassFunction.__post_init__

    def counting_post_init(self):
        post_init(self)
        built.append(self)

    monkeypatch.setattr(MassFunction, "__post_init__", counting_post_init)
    return built


class TestTraceOnDemand:
    def test_summary_builds_no_mass_functions(self, supplier_problem, mass_builds):
        report = rank_alternatives(supplier_problem)
        emit_report(report, SUMMARY, HUMAN_TABLE)
        emit_report(report, SUMMARY, JSON_FORMAT)
        assert mass_builds == []

    def test_full_trace_emit_builds_no_mass_functions(self, supplier_problem, mass_builds):
        # both formats render the trace from the kernel's triple tables, and
        # reading the tables builds nothing either
        report = rank_alternatives(supplier_problem)
        emit_report(report, FULL_TRACE, HUMAN_TABLE)
        emit_report(report, FULL_TRACE, JSON_FORMAT)
        for table in TABLES:
            getattr(report, table)
        assert mass_builds == []
        with pytest.raises(ValueError, match="no trace"):
            emit_report(built_directly(report), FULL_TRACE, JSON_FORMAT)

    def test_full_trace_bytes_repeat(self, supplier_problem):
        first = rank_alternatives(supplier_problem)
        second = rank_alternatives(supplier_problem)
        for fmt in (HUMAN_TABLE, JSON_FORMAT):
            once = emit_report(first, FULL_TRACE, fmt)
            assert emit_report(first, FULL_TRACE, fmt) == once
            assert emit_report(second, FULL_TRACE, fmt) == once

    def test_trace_is_built_once(self, supplier_report):
        # the tables are built together, once, and are immutable
        for table in TABLES:
            assert getattr(supplier_report, table) is getattr(supplier_report, table)
            assert type(getattr(supplier_report, table)) is tuple
            with pytest.raises(AttributeError):
                setattr(supplier_report, table, ())
        assert type(supplier_report.cells[0][0][0]) is tuple

    def test_report_built_directly_has_no_trace(self, supplier_report):
        report = built_directly(supplier_report)
        for table in TABLES:
            with pytest.raises(ValueError, match="no trace"):
                getattr(report, table)

    def test_report_built_directly_renders_a_summary(self, supplier_report):
        report = built_directly(supplier_report)
        for fmt in (HUMAN_TABLE, JSON_FORMAT):
            assert emit_report(report, SUMMARY, fmt) == emit_report(supplier_report, SUMMARY, fmt)
            with pytest.raises(ValueError, match="no trace"):
                emit_report(report, FULL_TRACE, fmt)

    def test_total_conflict_across_decision_makers_raises_at_rank(self):
        # each decision maker is certain of the opposite hypothesis
        problem = build_problem(
            [(1, 1), (1, 1)], [[(1, 1)], [(1, 1)]], [[[(1.0, 0.0, 0.0)]], [[(0.0, 1.0, 0.0)]]]
        )
        with pytest.raises(TotalConflict) as err:
            rank_alternatives(problem)
        assert str(err.value) == (
            "alternative 'A1': conflict coefficient is 1.0; combination is undefined"
        )

    def test_total_conflict_at_collapse_raises_at_rank(self):
        # C1 is certain of IS but weighs [0, 1], so only right parts see it;
        # thirteen NS-leaning criteria drive the left part to within 1e-13
        # of certain NS. Both folds succeed and the collapse cannot.
        n_ns = 13
        problem = build_problem(
            [(1, 1)],
            [[(0, 1)] + [(1, 1)] * n_ns],
            [[[(1.0, 0.0, 0.0)] + [(0.0, 0.9, 0.1)] * n_ns]],
        )
        weights = normalize_weight_group(problem.criterion_weights[0])
        fused = fuse_interval_bpas(
            discount_to_interval_bpa(m, w) for m, w in zip(problem.ratings[0][0], weights)
        )
        with pytest.raises(TotalConflict):
            collapse_interval_bpa(fused)
        with pytest.raises(TotalConflict) as err:
            rank_alternatives(problem)
        assert str(err.value).startswith("alternative 'A1': conflict coefficient is 0.9999999999998")
