"""Randomized property suites.

Each suite runs at least 200 generated cases. Tolerances: products and
single combinations are compared at 1e-12; anything folding several
floating-point operations (associativity, whole-pipeline equivalence) at
1e-9; identities that hold bitwise are asserted exactly.

Acceptance criterion 5 calls suites 1 to 8 too. Each of them runs once per
session (see :func:`once`), whichever of the two callers comes first.
"""

import functools
import json
import math

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from intervalfusion import (
    PER_DM,
    POOLED,
    DecisionProblem,
    Interval,
    IntervalFusionError,
    MassFunction,
    load_problem,
    normalize_weight_group,
    rank_alternatives,
)
from intervalfusion.errors import TotalConflict
from intervalfusion.evidence import EXACT_SUM_TOLERANCE, FRAME
from intervalfusion.pipeline import bet_ideal, discount_to_interval_bpa

from per_object import per_object_rank
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
    assert discount_to_interval_bpa([t], [t], [1.0], [1.0]) == t + t
    vacuous = MassFunction((0.0, 0.0, 1.0)).masses
    assert discount_to_interval_bpa([t], [t], [0.0], [0.0]) == vacuous + vacuous


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
            tuple(tuple(as_mass(r) for r in row) for row in dm) for dm in ratings
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
        # each triple is the one a MassFunction built from it stores
        for t in trace_triples(report):
            assert hexed(t) == hexed(MassFunction(t).masses)
        assert_report_invariants(problem, report)


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


# 10. the constructor follows the rules of a package-free reference: the
# same masses bit for bit, or the same error type and message
def reference_masses(t):
    """Each mass in (IS, NS, full frame) order is ``float()``-ed, an int
    beyond float range reading as inf, and a non-finite or negative one is
    rejected, as is one that is not an int or float (a bool included); then
    the sum policy: reject a sum more than 1e-6 from 1 (by ``math.fsum``, a
    sum beyond float range reading as inf), divide by one more than 1e-12
    from 1. A zero mass reads as +0.0."""
    values = []
    for focal_set, x in zip(("{'IS'}", "{'NS'}", "{'IS', 'NS'}"), t):
        try:
            v = float(x) if isinstance(x, (int, float)) and not isinstance(x, bool) else math.nan
        except OverflowError:
            v = math.inf
        if not math.isfinite(v) or v < 0.0:
            return "NegativeMass", f"mass for {focal_set} must be finite and non-negative, got {x!r}"
        values.append(v)
    try:
        total = math.fsum(values)
    except OverflowError:  # a sum beyond float range
        total = math.inf
    if abs(total - 1.0) > 1e-6:
        return "MassSumViolation", f"masses sum to {total!r}, expected 1"
    if abs(total - 1.0) > 1e-12:
        values = [v / total for v in values]
    return [(v if v else 0.0).hex() for v in values]


_masses = st.one_of(
    st.sampled_from(
        [0.0, -0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 0, 1, True, False,
         float("nan"), float("inf"), float("-inf"), -0.5, -5e-324, 1.0, 10**400, -(10**400)]
    ),
    st.integers(min_value=-2, max_value=2),
    st.floats(),
    _unit,
)
_near_unit = st.builds(
    lambda a, b, delta: (a, (1.0 - a) * b, 1.0 - a - (1.0 - a) * b + delta),
    _unit,
    _unit,
    st.sampled_from([0.0, 1e-12, -1e-12, 2e-12, -2e-12, 1e-6, -1e-6, 1.1e-6, -1.1e-6]),
)


def built(t):
    try:
        m = MassFunction(t)
    except IntervalFusionError as exc:
        return type(exc).__name__, str(exc)
    return [v.hex() for v in m.masses]


@RUNS
@given(t=st.one_of(st.tuples(_masses, _masses, _masses), _near_unit))
@example(t=(0.0, -0.0, 1.0))
@example(t=(5e-324, 0.0, 1.0))
@example(t=(0, 1, 0))
@example(t=(-0.5, float("inf"), 0.2))
@example(t=(0.0, 0.0, float("inf")))
@example(t=(0.5, float("nan"), 0.5))
@example(t=(True, 0.0, 0.0))
@example(t=(10**400, 0.0, -1.0))
@example(t=(0.0, 8.988465674311579e307, 8.98846567431158e307))
def test_constructor_matches_reference(t):
    assert built(t) == reference_masses(t)


# 11. a loaded cell is a fixed point of the constructor: the loader checks
# each rating once and builds its cell without the constructor's checks, so
# the cell must be what the constructor would make of it, bit for bit
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
def test_loaded_cells_are_constructor_fixed_points(t):
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
    assert hexed(cell.masses) == hexed(MassFunction(cell.masses).masses)
    assert all(math.copysign(1.0, v) == 1.0 for v in cell.masses)
