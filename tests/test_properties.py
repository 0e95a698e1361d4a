"""Randomized property suites.

Each suite runs at least 200 generated cases. Tolerances: products and
single combinations are compared at 1e-12; anything folding several
floating-point operations (associativity, whole-pipeline equivalence) at
1e-9; identities that hold bitwise are asserted exactly.

Acceptance criterion 5 calls suites 1 to 8 too. Each of them runs once per
session (see :func:`once`), whichever of the two callers comes first.
"""

import ast
import functools
import json
import math
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from intervalfusion import (
    PER_DM,
    POOLED,
    DecisionProblem,
    Interval,
    IntervalFusionError,
    MassFunction,
    errors,
    load_problem,
    rank_alternatives,
)
from intervalfusion.errors import MassSumViolation, TotalConflict
from intervalfusion.evidence import EXACT_SUM_TOLERANCE, FRAME, _settle
from intervalfusion.pipeline import bet_ideal, discount_to_interval_bpa, normalize_weight_group

from per_object import per_object_rank, sum_policy
from reference import brute_combine, crisp_rank

RUNS = settings(max_examples=200, deadline=None)

_outcomes: dict[str, Exception | None] = {}


def once(suite):
    """``suite``, run at most once per session: a later call repeats the
    first call's outcome, passing or raising the same error."""

    @functools.wraps(suite)
    def run():
        name = suite.__name__
        if name not in _outcomes:
            try:
                suite()
            except Exception as exc:
                _outcomes[name] = exc
                raise
            _outcomes[name] = None
        elif _outcomes[name] is not None:
            raise _outcomes[name]

    return run


@st.composite
def mass_functions(draw):
    """A mass function with one to three focal sets among {IS}, {NS} and
    the full frame, drawn as its (IS, NS, full frame) triple."""
    focal = draw(st.lists(st.integers(min_value=0, max_value=2), min_size=1, max_size=3, unique=True))
    weights = draw(
        st.lists(
            st.floats(min_value=0.01, max_value=1.0, allow_nan=False),
            min_size=len(focal),
            max_size=len(focal),
        )
    )
    total = sum(weights)
    masses = [0.0, 0.0, 0.0]
    for i, w in zip(focal, weights):
        masses[i] = w / total
    return MassFunction(tuple(masses))


@st.composite
def mass_pairs(draw):
    return draw(mass_functions()), draw(mass_functions())


@st.composite
def mass_triples(draw):
    return tuple(draw(mass_functions()) for _ in range(3))


@st.composite
def rating_triples(draw, max_committed=1.0):
    a = draw(st.floats(min_value=0.0, max_value=max_committed, allow_nan=False))
    b = draw(st.floats(min_value=0.0, max_value=max(0.0, max_committed - a), allow_nan=False))
    c = max(0.0, 1.0 - a - b)
    return (a, b, c)


def as_mass(triple):
    return MassFunction(tuple(triple))


_SUBSETS = (frozenset(FRAME[:1]), frozenset(FRAME[1:]), frozenset(FRAME))


def by_labels(m):
    """The non-zero masses of ``m``, a mass function or its triple, keyed by
    label frozensets, as the oracles take them."""
    masses = m.masses if isinstance(m, MassFunction) else m
    return {subset: v for subset, v in zip(_SUBSETS, masses) if v}


def assert_masses_close(m1, m2, tol):
    assert m1.masses == pytest.approx(m2.masses, abs=tol)


# 1. combination is commutative
@once
@RUNS
@given(pair=mass_pairs())
@example(
    pair=(
        as_mass((0.07697430866546645, 0.4854760764029465, 0.43754961493158706)),
        as_mass((0.21255837564721652, 0.4128642317334276, 0.37457739261935585)),
    )
)
def test_combine_commutative(pair):
    m1, m2 = pair
    try:
        a = m1.combine(m2)
        b = m2.combine(m1)
    except TotalConflict:
        assume(False)
    assert_masses_close(a, b, 1e-12)


# 2. combination is associative
@once
@RUNS
@given(ms=mass_triples())
def test_combine_associative(ms):
    m1, m2, m3 = ms
    try:
        left = m1.combine(m2).combine(m3)
        right = m1.combine(m2.combine(m3))
    except TotalConflict:
        assume(False)
    assert_masses_close(left, right, 1e-9)


# 3. the vacuous assignment is a two-sided neutral element (bit-exact)
@once
@RUNS
@given(pair=mass_pairs())
def test_vacuous_neutral_exact(pair):
    m, _ = pair
    vac = MassFunction((0.0, 0.0, 1.0))
    assert m.combine(vac) == m
    assert vac.combine(m) == m


# 4. the pignistic transform yields a probability vector
@once
@RUNS
@given(pair=mass_pairs())
def test_pignistic_is_probability_vector(pair):
    m, _ = pair
    bets = (bet_ideal(m.masses), m.masses[1] + m.masses[2] / 2.0)
    assert all(v >= 0.0 for v in bets)
    assert sum(bets) == pytest.approx(1.0, abs=1e-12)


# 5. discount identities: weight [1,1] reproduces the input, [0,0] erases it
@once
@RUNS
@given(triple=rating_triples())
def test_discount_identities_exact(triple):
    t = as_mass(triple).masses
    assert discount_to_interval_bpa([t], [1.0], [1.0]) == t + t
    vacuous = MassFunction((0.0, 0.0, 1.0)).masses
    assert discount_to_interval_bpa([t], [0.0], [0.0]) == vacuous + vacuous


# 6. normalization is invariant under common positive rescaling. Endpoints
# are either exactly zero or bounded away from the subnormal range: scaling
# a 1e-324 endpoint underflows to zero, where the identity cannot hold in
# floating point.
_endpoint = st.one_of(
    st.just(0.0), st.floats(min_value=1e-3, max_value=5.0, allow_nan=False)
)


@once
@RUNS
@given(
    raw=st.lists(st.tuples(_endpoint, _endpoint), min_size=1, max_size=8),
    k=st.floats(min_value=1e-6, max_value=10.0, allow_nan=False),
)
def test_normalization_scale_invariant(raw, k):
    weights = [Interval(lo, lo + delta) for lo, delta in raw]
    assume(max(w.hi for w in weights) > 0.0)
    base = normalize_weight_group(weights)
    scaled = normalize_weight_group([Interval(k * w.lo, k * w.hi) for w in weights])
    for a, b in zip(base, scaled):
        assert a.lo == pytest.approx(b.lo, abs=1e-12)
        assert a.hi == pytest.approx(b.hi, abs=1e-12)


# 7. combination (the closed form of evidence.fold) agrees with the
# exhaustive subset-pair oracle
@once
@RUNS
@given(pair=mass_pairs())
def test_combine_matches_brute_force_oracle(pair):
    m1, m2 = pair
    expected, k = brute_combine(FRAME, by_labels(m1), by_labels(m2))
    if expected is None or k >= 1.0 - 1e-9:
        # (near-)total conflict: 1/(1-K) is numerically meaningless there
        # and the library refuses to renormalize; the exact K = 1 behavior
        # is pinned by TestCombine.test_total_conflict
        return
    got = by_labels(m1.combine(m2))
    for subset, value in expected.items():
        assert got.get(subset, 0.0) == pytest.approx(value, abs=1e-12)
    for subset, value in got.items():
        assert expected.get(subset, 0.0) == pytest.approx(value, abs=1e-12)


# 8. with degenerate weights the whole pipeline reduces to the crisp one
@st.composite
def degenerate_problems(draw):
    n_dm = draw(st.integers(min_value=1, max_value=3))
    n_alt = draw(st.integers(min_value=1, max_value=3))
    n_crit = draw(st.integers(min_value=1, max_value=3))
    scalar = st.floats(min_value=0.1, max_value=1.0, allow_nan=False)
    dm_w = [draw(scalar) for _ in range(n_dm)]
    crit_w = [[draw(scalar) for _ in range(n_crit)] for _ in range(n_dm)]
    # keep at least 5% uncommitted mass so no fusion can reach total conflict
    ratings = [
        [[draw(rating_triples(max_committed=0.95)) for _ in range(n_crit)] for _ in range(n_alt)]
        for _ in range(n_dm)
    ]
    return dm_w, crit_w, ratings


@once
@RUNS
@given(data=degenerate_problems())
def test_degenerate_weights_match_crisp_pipeline(data):
    dm_w, crit_w, ratings = data
    n_dm, n_alt, n_crit = len(dm_w), len(ratings[0]), len(crit_w[0])
    problem = DecisionProblem(
        alternatives=tuple(f"A{i}" for i in range(n_alt)),
        criteria=tuple(f"C{i}" for i in range(n_crit)),
        decision_makers=tuple(f"D{i}" for i in range(n_dm)),
        dm_weights=tuple(Interval(w, w) for w in dm_w),
        criterion_weights=tuple(tuple(Interval(w, w) for w in ws) for ws in crit_w),
        ratings=tuple(
            tuple(tuple(as_mass(r).masses for r in row) for row in dm) for dm in ratings
        ),
    )
    report = rank_alternatives(problem)
    # degenerate weights keep both parts identical at every stage
    for dm in report.cells:
        for row in dm:
            for left, right in row:
                assert left == right
    for left, right in report.final:
        assert left == right
    expected = crisp_rank(dm_w, crit_w, ratings)
    for got, want in zip(report.bets, expected):
        assert got == pytest.approx(want, abs=1e-9)


# 9. the closed-form kernel of rank_alternatives equals the per-object fold
# of tests/per_object.py, bit for bit: bets, every trace table, and the type
# and message of errors


TABLES = ("cells", "fused_per_dm", "final", "collapsed")


def hexed(x):
    """``x``, nested tuples of floats, with each float as its ``float.hex``:
    equal only if bit for bit equal, the sign of a zero included."""
    return x.hex() if isinstance(x, float) else tuple(map(hexed, x))


def assert_settled(t):
    """``t`` is a triple as the package holds one: three finite, non-negative
    floats, each zero +0.0, that the sum policy keeps bit for bit."""
    a, b, c = t
    assert all(type(x) is float and 0.0 <= x < math.inf and math.copysign(1.0, x) == 1.0 for x in t)
    assert hexed(_settle(a, b, c)) == hexed(t)


def trace_triples(report):
    """Every triple of the report's four trace tables."""
    triples = [t for dm in report.cells for row in dm for pair in row for t in pair]
    triples += [t for dm in report.fused_per_dm for pair in dm for t in pair]
    return triples + [t for pair in report.final for t in pair] + list(report.collapsed)


_unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
_weights = st.one_of(
    st.just(0),
    st.just(-0.0),
    st.just(1),
    st.just([1, 1]),
    _unit.map(lambda x: [0, x]),
    _unit.map(lambda x: [-0.0, x]),
    _unit,
    st.tuples(_unit, _unit).map(sorted),
)
# certain and vacuous ratings, zero-uncommitted triples (at unit weight their
# discount complement is clamped and renormalized), triples rounded to 4
# decimals (rescaled on loading), and unrounded ones
_ratings = st.one_of(
    st.sampled_from([[1, 0, 0], [0, 1, 0], [0, 0, 1]]),
    _unit.map(lambda a: [a, 1.0 - a, 0.0]),
    rating_triples().map(lambda t: [round(x, 4) for x in t]),
    rating_triples().map(list),
)


@st.composite
def problem_documents(draw):
    n_dm = draw(st.integers(min_value=1, max_value=3))
    n_alt = draw(st.integers(min_value=1, max_value=3))
    n_crit = draw(st.integers(min_value=1, max_value=4))
    alternatives = [f"A{i}" for i in range(n_alt)]
    criteria = [f"C{i}" for i in range(n_crit)]
    dms = [f"D{i}" for i in range(n_dm)]
    doc = {
        "schema_version": "1",
        "alternatives": alternatives,
        "criteria": criteria,
        "decision_makers": [
            {"name": dm, "weight": draw(_weights), "criterion_weights": [draw(_weights) for _ in criteria]}
            for dm in dms
        ],
        "ratings": {
            dm: {alt: {crit: draw(_ratings) for crit in criteria} for alt in alternatives} for dm in dms
        },
    }
    return json.dumps(doc), draw(st.sampled_from([POOLED, PER_DM]))


def outcome(run):
    try:
        return run(), None
    except IntervalFusionError as exc:
        return None, (type(exc), str(exc))


@RUNS
@given(case=problem_documents())
def test_kernel_matches_per_object_fold(case):
    text, normalization = case
    try:
        problem = load_problem(text)
    except IntervalFusionError:
        assume(False)  # all-zero weight groups are rejected on loading
    expected, expected_error = outcome(lambda: per_object_rank(problem, normalization))
    report, error = outcome(lambda: rank_alternatives(problem, criterion_normalization=normalization))
    assert error == expected_error
    if error is None:
        assert hexed(report.bets) == hexed(expected["bets"])
        for table in TABLES:
            assert hexed(getattr(report, table)) == hexed(expected[table]), table
        for t in trace_triples(report):
            assert_settled(t)
        assert_report_invariants(problem, report)


def test_per_object_reference_is_package_free():
    # property 9 can see a fault in the package's arithmetic only if the
    # reference runs none of it: it may import error classes and the names
    # of the normalizations, and nothing else of the package
    tree = ast.parse((Path(__file__).parent / "per_object.py").read_text(encoding="utf-8"))
    imported = {(alias.name, None) for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names}
    imported |= {(node.module, alias.name) for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                 for alias in node.names}
    allowed = {("intervalfusion", "POOLED"), ("intervalfusion", "PER_DM")}
    allowed |= {("intervalfusion.errors", name) for name, value in vars(errors).items()
                if isinstance(value, type) and issubclass(value, Exception)}
    from_package = {(module, name) for module, name in imported if module.partition(".")[0] == "intervalfusion"}
    assert from_package <= allowed


def labels_are_the_problem_tuples(problem, report):
    assert (report.alternatives, report.criteria, report.decision_makers) == (
        problem.alternatives, problem.criteria, problem.decision_makers)
    assert {type(report.alternatives), type(report.criteria), type(report.decision_makers)} == {tuple}


def weight_tables_are_tuple_grids_of_intervals(problem, report):
    n_crit, n_dm = len(problem.criteria), len(problem.decision_makers)
    tables = (report.normalized_criterion_weights, *report.normalized_criterion_weights, report.normalized_dm_weights)
    assert {type(t) for t in tables} == {tuple}
    assert [len(ws) for ws in report.normalized_criterion_weights] == [n_crit] * n_dm
    weights = [*report.normalized_dm_weights, *(w for ws in report.normalized_criterion_weights for w in ws)]
    assert len(weights) == n_dm * (1 + n_crit) and {type(w) for w in weights} == {Interval}
    # the Interval constructor checks nothing: the loader orders each pair and
    # normalization divides it by its group's largest endpoint
    assert all(type(w.lo) is type(w.hi) is float and 0.0 <= w.lo <= w.hi <= 1.0 for w in weights)


def bets_are_finite_floats_in_the_unit_interval(problem, report):
    # The sum policy keeps a triple whose masses sum to within
    # EXACT_SUM_TOLERANCE of 1 as it is, so a bet may lie above 1 by as
    # much: a certain rating fused with a nearly opposed one gives
    # (1.0000000000000004, 0.0, 0.0).
    assert type(report.bets) is tuple and len(report.bets) == len(problem.alternatives)
    assert all(type(b) is float and 0.0 <= b <= 1.0 + EXACT_SUM_TOLERANCE for b in report.bets)


def ranking_permutes_the_alternatives(problem, report):
    assert type(report.ranking) is tuple
    assert sorted(report.ranking) == sorted(problem.alternatives)


def ranking_orders_bets_with_ties_in_input_order(problem, report):
    alts = problem.alternatives
    ranked = [(report.bets[alts.index(label)], alts.index(label)) for label in report.ranking]
    for (bet, i), (next_bet, j) in zip(ranked, ranked[1:]):
        assert bet > next_bet or bet == next_bet and i < j


# What a report's constructor does not check, held by the report's one
# producer; tests/test_pipeline.py checks each on fixed problems.
REPORT_INVARIANTS = {
    check.__name__: check
    for check in (
        labels_are_the_problem_tuples,
        weight_tables_are_tuple_grids_of_intervals,
        bets_are_finite_floats_in_the_unit_interval,
        ranking_permutes_the_alternatives,
        ranking_orders_bets_with_ties_in_input_order,
    )
}


def assert_report_invariants(problem, report):
    for check in REPORT_INVARIANTS.values():
        check(problem, report)


# 10. the sum policy follows the package-free reference of tests/per_object.py
# on finite, non-negative floats: the same masses bit for bit, or the same
# error type and message
def policy_outcome(policy, t):
    """The ``float.hex`` of each mass the sum policy ``policy`` keeps of the
    triple ``t``, or the type name and message of the error it raises."""
    try:
        return [v.hex() for v in policy(*t)]
    except MassSumViolation as exc:
        return type(exc).__name__, str(exc)


_masses = st.one_of(
    st.sampled_from([0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1.0, 8.98846567431158e307]),
    st.floats(min_value=0.0, allow_infinity=False),
    _unit,
)
_near_unit = st.builds(
    lambda a, b, delta: (a, (1.0 - a) * b, 1.0 - a - (1.0 - a) * b + delta),
    _unit,
    _unit,
    st.sampled_from([0.0, 1e-12, -1e-12, 2e-12, -2e-12, 1e-6, -1e-6, 1.1e-6, -1.1e-6]),
).filter(lambda t: t[2] >= 0.0)


@RUNS
@given(t=st.one_of(st.tuples(_masses, _masses, _masses), _near_unit))
@example(t=(5e-324, 0.0, 1.0))
@example(t=(0.5, 0.25, 0.25 + 1e-12))
@example(t=(0.0, 0.0, 1.0 + 2e-6))
@example(t=(0.0, 8.988465674311579e307, 8.98846567431158e307))
def test_sum_policy_matches_reference(t):
    assert policy_outcome(_settle, t) == policy_outcome(sum_policy, t)


# 11. a loaded cell is settled: the loader is the one checker of a rating,
# so it must leave each cell three finite, non-negative floats, each zero
# +0.0, that the sum policy keeps bit for bit
_rating_masses = st.one_of(
    st.sampled_from([0.0, -0.0, 0, 1, 5e-324, 2.2250738585072014e-308, 1e-300]),
    st.floats(min_value=0.0, max_value=1.0),
)
_sum_misses = st.sampled_from(
    [0.0, 1e-12, -1e-12, 1e-6, -1e-6, 1e-3 - 1e-12, -(1e-3 - 1e-12), 1e-3 - 2e-16, -(1e-3 - 2e-16)]
)


@st.composite
def raw_ratings(draw):
    """Rating literals in any order: two drawn masses and the rest of a unit
    sum, missed by up to just under the loader's 1e-3."""
    x, y = draw(_rating_masses), draw(_rating_masses)
    return draw(st.permutations([x, y, 1.0 - x - y + draw(_sum_misses)]))


@RUNS
@given(t=raw_ratings())
@example(t=[-0.0, 1, 0])
@example(t=[0.0, -0.0, 1.0])
@example(t=[5e-324, 0.3333, 0.6667])
@example(t=[0.3333, 0.3333, 0.3333])
def test_loaded_cells_are_settled(t):
    doc = {
        "schema_version": "1",
        "alternatives": ["A"],
        "criteria": ["C"],
        "decision_makers": [{"name": "D", "weight": 1, "criterion_weights": [1]}],
        "ratings": {"D": {"A": {"C": t}}},
    }
    try:
        cell = load_problem(json.dumps(doc)).ratings[0][0][0]
    except IntervalFusionError:
        return  # a negative rest, or a sum the loader rejects
    assert_settled(cell.masses)


# 12. neutral inputs change no bet, bit for bit: a criterion rated vacuously
# everywhere, whose weight keeps its group's largest endpoint, and a decision
# maker of weight 0. Each is a vacuous source of the fold it enters, wherever
# it enters it, the first source included.
def bets_or_error(text, normalization):
    """The ``float.hex`` of each bet of the document ``text``, or the type
    of the error its rank raised."""
    try:
        return hexed(rank_alternatives(load_problem(text), criterion_normalization=normalization).bets)
    except IntervalFusionError as exc:
        return type(exc)


@RUNS
@given(case=problem_documents(), data=st.data())
def test_neutral_criterion_and_decision_maker_change_no_bet(case, data):
    text, normalization = case
    try:
        problem = load_problem(text)
    except IntervalFusionError:
        assume(False)  # all-zero weight groups are rejected on loading
    expected = bets_or_error(text, normalization)
    doc = json.loads(text)
    dms = doc["decision_makers"]

    # a criterion rated (0, 0, 1) everywhere, its weight within each group
    with_criterion = json.loads(text)
    at = data.draw(st.integers(min_value=0, max_value=len(doc["criteria"])), label="criterion position")
    with_criterion["criteria"].insert(at, "Cv")
    pooled_top = max(w.hi for ws in problem.criterion_weights for w in ws)
    for entry, ws in zip(with_criterion["decision_makers"], problem.criterion_weights):
        top = pooled_top if normalization == POOLED else max(w.hi for w in ws)
        lo, hi = sorted(data.draw(st.tuples(_unit, _unit), label="weight fractions"))
        entry["criterion_weights"].insert(at, [lo * top, hi * top])
    for rows in with_criterion["ratings"].values():
        for row in rows.values():
            row["Cv"] = [0, 0, 1]
    assert bets_or_error(json.dumps(with_criterion), normalization) == expected

    # a decision maker of weight 0, rated vacuously or as another one is,
    # with that one's criterion weights
    with_dm = json.loads(text)
    at = data.draw(st.integers(min_value=0, max_value=len(dms)), label="decision maker position")
    like = data.draw(st.sampled_from(dms), label="like")
    with_dm["decision_makers"].insert(at, {"name": "Dv", "weight": 0, "criterion_weights": like["criterion_weights"]})
    vacuous = {alt: {crit: [0, 0, 1] for crit in doc["criteria"]} for alt in doc["alternatives"]}
    with_dm["ratings"]["Dv"] = data.draw(st.sampled_from([vacuous, doc["ratings"][like["name"]]]), label="ratings")
    assert bets_or_error(json.dumps(with_dm), normalization) == expected


def test_vacuous_first_criterion_changes_no_bet():
    # property 12's criterion at the one place where only Dempster's c1 * a2
    # term carries a mass on {IS}: rated vacuously, first in its row, weighted
    # inside its group, before a criterion whose rating has mass on {IS}
    def document(criteria):
        weights, ratings = {"Cv": [0.2, 0.7], "C": 1}, {"Cv": [0, 0, 1], "C": [0.6, 0.2, 0.2]}
        return json.dumps({
            "schema_version": "1", "alternatives": ["A"], "criteria": criteria,
            "decision_makers": [{"name": "D", "weight": 1, "criterion_weights": [weights[c] for c in criteria]}],
            "ratings": {"D": {"A": {c: ratings[c] for c in criteria}}},
        })

    expected = bets_or_error(document(["C"]), POOLED)
    # (0.6, 0.2, 0.2) collapsed with itself: K = 0.24
    assert [float.fromhex(bet) for bet in expected] == [pytest.approx((0.6 + 0.02) / 0.76, abs=1e-12)]
    assert bets_or_error(document(["Cv", "C"]), POOLED) == expected
