import math
from functools import reduce

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from intervalfusion import MassFunction, evidence, rank_alternatives
from intervalfusion.errors import MassSumViolation, TotalConflict
from intervalfusion.evidence import (
    _PLAIN_SUM_TOLERANCE,
    EXACT_SUM_TOLERANCE,
    FRAME,
    TOTAL_CONFLICT_EPS,
    _settle,
    discount,
    fold,
)
from intervalfusion.pipeline import bet_ideal

from per_object import reference_dempster, reference_discount, sum_policy
from reference import brute_combine, brute_pignistic
from test_properties import assert_settled, by_labels, policy_outcome


def triple(a, b, c):
    return MassFunction((a, b, c))


class TestFrame:
    def test_masks(self):
        # the masses are those of {IS}, {NS} and the full frame, in that order
        assert FRAME == ("IS", "NS")


class TestConstruction:
    def test_table_row(self):
        m = triple(0.60, 0.20, 0.20)
        assert m.masses == (0.60, 0.20, 0.20)
        assert [m.mass_of_mask(mask) for mask in (0b00, 0b01, 0b10, 0b11)] == [0.0, 0.60, 0.20, 0.20]

    def test_vacuous(self):
        assert MassFunction((0.0, 0.0, 1.0)).masses == (0.0, 0.0, 1.0)

    def test_sum_violation(self):
        with pytest.raises(MassSumViolation):
            _settle(0.7, 0.7, 0.0)

    def test_rounded_table_row_renormalized(self):
        # four-decimal published data: sum deviates by well under 1e-6
        masses = _settle(0.6429, 0.0714, 0.2857)
        assert sum(masses) == pytest.approx(1.0, abs=1e-12)

    def test_large_deviation_rejected(self):
        with pytest.raises(MassSumViolation):
            _settle(0.6429, 0.0714, 0.29)


@st.composite
def near_policy_edges(draw):
    """Non-negative triples whose exact sum lies within a few ulp of a
    tolerance edge of the sum policy: 1 +- 1e-12, 1 +- 1e-6, or the edge
    1 +- (1e-12 - 1e-15) of fold's plain-sum shortcut."""
    edge = draw(st.sampled_from([1e-12, 1e-6, 1e-12 - 1e-15]))
    target = 1.0 + draw(st.sampled_from([edge, -edge]))
    a = draw(st.floats(0.0, 1.0)) * target
    b = draw(st.floats(0.0, 1.0)) * (target - a)
    c = target - a - b
    for _ in range(abs(steps := draw(st.integers(-6, 6)))):
        c = math.nextafter(c, math.copysign(math.inf, steps))
    assume(c >= 0.0)
    return draw(st.permutations((a, b, c)))


class TestSumPolicy:
    @settings(max_examples=400, deadline=None)
    @given(t=near_policy_edges())
    # plain sums within 1e-12 of 1 whose exact sums are not: a plain-sum
    # bound of EXACT_SUM_TOLERANCE itself would keep them where fsum divides
    @example(t=tuple(map(float.fromhex, ("0x1.f79dbd74f5eaap-2", "0x1.ae2cc770f1c6ep-3", "0x1.314bded29597dp-2"))))
    @example(t=tuple(map(float.fromhex, ("0x1.91fb0547ce95cp-2", "0x1.f14305c5411e6p-3", "0x1.756377d58c752p-2"))))
    @example(t=(0.5, 0.25, 0.25 + 1e-12))
    @example(t=(0.5, 0.25, 0.25 - 1e-6))
    @example(t=(0.0, 0.0, 1.0 + 2e-6))
    def test_shortcut_matches_fsum_policy(self, t):
        # the same settled masses bit for bit, or the same error and message
        assert policy_outcome(_settle, t) == policy_outcome(sum_policy, t)
        # fold's premise: a plain sum within its band is kept as it is
        if abs(t[0] + t[1] + t[2] - 1.0) <= _PLAIN_SUM_TOLERANCE:
            assert policy_outcome(sum_policy, t) == [v.hex() for v in t]


_unit_sums = st.builds(lambda a, b: (a, (1.0 - a) * b, 1.0 - a - (1.0 - a) * b), st.floats(0, 1), st.floats(0, 1))
# no uncommitted mass and a sum kept just above 1: at w near 1 the complement
# falls below zero and is clamped
_over_one = st.builds(lambda a, d: (a, 1.0 - a + d, 0.0), st.floats(0, 1), st.sampled_from([1e-13, 5e-13, 9e-13]))


# The largest multiple of ulp(1) not above 1e-6: 0.5 + 0.5 + it is exact.
_INSIDE_1E_6 = math.floor(1e-6 / math.ulp(1.0)) * math.ulp(1.0)
assert _INSIDE_1E_6 < 1e-6 < _INSIDE_1E_6 + math.ulp(1.0)


class TestDiscount:
    @settings(max_examples=400, deadline=None)
    @given(
        t=st.one_of(near_policy_edges(), _unit_sums, _over_one),
        w=st.one_of(st.sampled_from([0.0, 5e-324, 1.0]), st.floats(0.0, 1.0)),
    )
    @example(t=(0.5, 0.5, 0.0), w=-0.0 + 0.0)
    @example(t=(1.0, 0.0, 0.0), w=5e-324)
    @example(t=(0.5, 0.5 + 1e-6, 0.0), w=1.0)
    @example(t=(0.5, 0.5 + 1e-12, 0.0), w=1.0)
    @example(t=(0.5, 0.5 + 5e-13, 0.0), w=1.0)  # complement -5e-13, clamped
    @example(t=(0.5, 0.5 - 1e-6, 0.0), w=1.0)
    def test_never_raises_on_a_mass_function(self, t, w):
        # the kernel discounts only settled triples, by weights in [0, 1], and
        # relies on this to call discount without an error handler
        try:
            masses = _settle(*t)
        except MassSumViolation:
            assume(False)
        assert_settled(masses)
        got = discount([masses], [w], [w])
        assert all(v >= 0.0 and math.copysign(1.0, v) == 1.0 for v in got)
        for part in (got[:3], got[3:]):
            assert policy_outcome(_settle, part) == [v.hex() for v in part]

    # Any finite p, q >= 0, not only a settled triple's, and any w in [0, 1]:
    # a complement c >= 0 leaves a plain sum that _settle keeps, so discount
    # keeps (a, b, c) with no sum test of its own.
    @settings(max_examples=1000, deadline=None)
    @given(
        p=st.one_of(st.floats(0.0, 1.0), st.floats(0.0, allow_infinity=False)),
        q=st.one_of(st.floats(0.0, 1.0), st.floats(0.0, allow_infinity=False)),
        w=st.one_of(st.sampled_from([0.0, 5e-324, 1e-308, 1.0]), st.floats(0.0, 1.0)),
    )
    @example(p=1.0, q=0.0, w=5e-324)  # subnormal weight
    @example(p=1e308, q=1e308, w=5e-324)
    @example(p=0.25, q=0.75, w=1.0)
    @example(p=1.0, q=0.0, w=1.0)
    @example(p=0.5, q=math.nextafter(0.5, 1.0), w=1.0)  # p + q just above 1: c < 0
    @example(p=0.5, q=math.nextafter(0.5, 1.0), w=math.nextafter(1.0, 0.0))
    @example(p=0.5, q=0.5 + 1e-12, w=1.0 - 1e-12)
    def test_a_non_negative_complement_needs_no_sum_test(self, p, q, w):
        a, b = p * w, q * w
        c = 1.0 - a - b
        assume(c >= 0.0)
        assert abs(a + b + c - 1.0) <= _PLAIN_SUM_TOLERANCE
        t = (p, q, 0.0)
        assert [x.hex() for x in discount([t], [w], [w])] == [x.hex() for x in (a, b, c)] * 2

    @pytest.mark.parametrize("deficit, settled", [
        (0.9e-9, True),
        (1.1e-9, True),
        (_INSIDE_1E_6, True),
        (_INSIDE_1E_6 + math.ulp(1.0), False),
    ], ids=["0.9e-9", "1.1e-9", "inside-1e-6", "outside-1e-6"])
    def test_a_negative_complement_is_clamped_and_settled(self, deficit, settled):
        # README: a complement below zero is clamped to zero and the triple
        # goes through the sum policy: renormalized while p + q is within
        # 1e-6 of 1, rejected beyond
        p, q = 0.5, 0.5 + deficit
        assert 1.0 - p - q == pytest.approx(-deficit, rel=1e-6)
        t = (p, q, 0.0)
        if settled:
            assert discount([t], [1.0], [1.0]) == (p / (p + q), q / (p + q), 0.0) * 2
        else:
            with pytest.raises(MassSumViolation, match="masses sum to"):
                discount([t], [1.0], [1.0])

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_each_side_is_clamped_and_settled_on_its_own(self, side):
        # one part's complement is below zero and the other's is not: only
        # the clamped part is renormalized. The left part is discounted by
        # the lower bound and the right part by the upper bound, so the part
        # discounted by 1 is the clamped one
        p, q = 0.5, 0.5 + 1.1e-9
        t, clamped = (p, q, 0.0), (p / (p + q), q / (p + q), 0.0)
        half = (p * 0.5, q * 0.5, 1.0 - p * 0.5 - q * 0.5)
        if side == "left":
            assert discount([t], [1.0], [0.5]) == clamped + half
        else:
            assert discount([t], [0.5], [1.0]) == half + clamped

    @pytest.mark.parametrize("lo, hi, failing", [
        (1.0, 1.5, "left"),
        (0.5, 1.0, "right"),
    ], ids=["left-before-right", "right-of-the-first-source"])
    def test_the_first_failing_part_raises(self, lo, hi, failing):
        # a discount raises at the first source that fails, its left part
        # before its right; a later source's failure is not reached
        t, later = (0.5, 0.5 + 2e-6, 0.0), (0.5, 0.5 + 4e-6, 0.0)
        w = lo if failing == "left" else hi
        with pytest.raises(MassSumViolation) as err:
            discount([t, later], [lo, 1.0], [hi, 1.0])
        assert str(err.value) == f"masses sum to {math.fsum((t[0] * w, t[1] * w, 0.0))!r}, expected 1"


def test_settle_never_meets_its_exact_band_edge():
    # _settle compares |total - 1| > EXACT_SUM_TOLERANCE only after it has
    # rejected |total - 1| > 1e-6. Such a total lies in [0.5, 2], so
    # total - 1.0 is exact and a multiple of 2**-53, while the float 1e-12 is
    # not one: "> 1e-12" and ">= 1e-12" cannot differ, so that mutant is
    # equivalent. This pins the premise.
    assert EXACT_SUM_TOLERANCE.hex() == "0x1.19799812dea11p-40"
    assert (EXACT_SUM_TOLERANCE * 2.0**53) % 1.0 != 0.0


def outcome(compute):
    """The hex digits of every mass ``compute()`` returns, or the error it raises."""
    try:
        return [[v.hex() for v in t] for t in compute()]
    except (MassSumViolation, TotalConflict) as exc:
        return type(exc).__name__, str(exc)


_sharp = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0), (0.999999999998, 2e-12, 0.0), (2e-12, 0.999999999998, 0.0))
_sources = st.one_of(near_policy_edges(), _unit_sums, _over_one, st.sampled_from(_sharp))
_weights = st.one_of(st.sampled_from([-0.0, 0.0, 5e-324, 1.0]), st.floats(0.0, 1.0))


class TestRowKernelParity:
    """The row discount and ``fold`` give the masses of the suite's scalar
    discount and two-source rule (``tests/per_object.py``) bit for bit, or
    their error and message."""

    @settings(max_examples=300, deadline=None)
    @given(rows=st.lists(st.tuples(_sources, _weights, _weights), min_size=1, max_size=6))
    @example(rows=[((0.5, 0.5 + 5e-13, 0.0), 1.0, 1.0)])  # complement clamped, sum kept
    @example(rows=[((0.5, 0.5 + 5e-10, 0.0), 1.0, 1.0)])  # complement clamped, sum renormalized
    @example(rows=[((0.6, 0.2, 0.2), 1.0, 1.0), ((0.5, 0.5 + 2e-9, 0.0), 1.0, 1.0)])  # -2e-9, renormalized
    @example(rows=[((0.6, 0.2, 0.2), 1.0, 1.0), ((0.5, 0.5 + 2e-6, 0.0), 1.0, 1.0)])  # -2e-6, rejected
    @example(rows=[((0.5, 0.5, 0.0), -0.0, -0.0), ((1.0, 0.0, 0.0), 5e-324, 5e-324), ((0.0, 1.0, 0.0), 5e-324, 5e-324)])
    # only the left part, or only the right part, clamped; a source's right part rejected before the next source's left
    @example(rows=[((0.5, 0.5 + 5e-10, 0.0), 1.0, 0.5), ((0.5, 0.5 + 5e-10, 0.0), 0.5, 1.0)])
    @example(rows=[((0.5, 0.5 + 2e-6, 0.0), 0.5, 1.0), ((0.5, 0.5 + 3e-6, 0.0), 1.0, 1.0)])
    def test_discount(self, rows):
        # each side's triples are the scalar discount's, in trace order: for
        # each source t its left part, t by the lower bound, then its right
        # part, t by the upper bound; an error is the first part's in that order
        def reference():
            parts = [side for t, lo, hi in rows for side in ((t, lo), (t, hi))]
            return [reference_discount(p, q, w) for (p, q, _), w in parts]

        def flat():
            masses = discount(*map(list, zip(*rows)))
            return [masses[i : i + 3] for i in range(0, len(masses), 3)]

        assert outcome(flat) == outcome(reference)

    @settings(max_examples=300, deadline=None)
    @given(triples=st.lists(_sources, min_size=1, max_size=6))
    @example(triples=[(0.6, 0.2, 0.2 + 1e-9), (0.0, 0.0, 1.0)])  # sum renormalized
    # plain sums within 1e-12 of 1 whose exact sums are not (see TestSumPolicy)
    @example(triples=[tuple(map(float.fromhex, ("0x1.f79dbd74f5eaap-2", "0x1.ae2cc770f1c6ep-3", "0x1.314bded29597dp-2"))), (0.0, 0.0, 1.0)])
    @example(triples=[(0.0, 0.0, 1.0), tuple(map(float.fromhex, ("0x1.91fb0547ce95cp-2", "0x1.f14305c5411e6p-3", "0x1.756377d58c752p-2")))])
    @example(triples=[(0.3, 0.2, 0.5), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0)])  # K = 1
    @example(triples=[(0.999999999998, 2e-12, 0.0), (2e-12, 0.999999999998, 0.0)])  # near-total conflict
    def test_fold(self, triples):
        expected = outcome(lambda: [reduce(reference_dempster, triples)])
        assert outcome(lambda: [fold(triples)]) == expected

    @settings(max_examples=300, deadline=None)
    @given(rows=st.lists(st.tuples(_sources, _weights), min_size=1, max_size=6))
    @example(rows=[((0.5, 0.5 + 5e-13, 0.0), 1.0)])  # complement clamped, sum kept
    @example(rows=[((0.5, 0.5 + 5e-10, 0.0), 1.0)])  # complement clamped, sum renormalized
    @example(rows=[((0.6, 0.2, 0.2), 1.0), ((0.5, 0.5 + 2e-9, 0.0), 1.0)])  # complement -2e-9, sum renormalized
    @example(rows=[((0.6, 0.2, 0.2), 1.0), ((0.5, 0.5 + 2e-6, 0.0), 1.0)])  # complement -2e-6, sum rejected
    @example(rows=[((0.5, 0.5, 0.0), -0.0), ((1.0, 0.0, 0.0), 5e-324), ((0.0, 1.0, 0.0), 5e-324)])
    # the clamp settles the first source to (1, 0, 0): K = 1 exactly, where
    # the undiscounted sources give K = 1 + 5e-10
    @example(rows=[((1.0 + 5e-10, 0.0, 0.0), 1.0), ((0.0, 1.0, 0.0), 1.0)])
    @example(rows=[((1.0, 0.0, 0.0), 0.5), ((0.0, 1.0, 0.0), 1.0)])  # K = 1 unless the first source is discounted
    @example(rows=[((1.0, 0.0, 0.0), 1.0), ((0.0, 1.0, 0.0), 1.0), ((0.5, 0.5 + 2e-6, 0.0), 1.0)])  # K = 1 first
    def test_weighted_fold(self, rows):
        # fold(triples, weights) folds the left parts of discount(triples,
        # weights, weights): the same masses bit for bit, or the same error
        # and message. It discounts each source just before that
        # source's step, so a step's error comes before a later source's
        # discount error: grow the discounted list one source at a time and
        # fold each prefix.
        def discount_then_fold():
            parts = []
            for t, w in rows:
                parts.append(discount([t], [w], [w])[:3])
                fused = fold(parts)
            return [fused]

        triples, weights = [t for t, _ in rows], [w for _, w in rows]
        assert outcome(lambda: [fold(triples, weights)]) == outcome(discount_then_fold)


def test_bundled_dataset_takes_the_inline_sum_check(supplier_problem, monkeypatch):
    # every discount and combination of the bundled ranking is kept by the
    # inline check but one: the complement of (0.7903.., 0.2097.., 0.0) at
    # weight 1 is below zero and clamped
    calls = []
    monkeypatch.setattr(evidence, "_settle", lambda *t: calls.append(t) or _settle(*t))
    rank_alternatives(supplier_problem)
    assert calls == [(0.7903387270104062, 0.20966127298959386, 0.0)]
    a, b, _ = calls[0]
    assert 1.0 - a - b < 0.0


class TestConflict:
    """The conflict coefficient K, seen through the 1 - K normalizer of combine."""

    def test_worked_value(self):
        m1 = triple(0.3795, 0.0468, 0.5737)
        m2 = triple(0.4694, 0.0734, 0.4572)
        # K = 0.3795 * 0.0734 + 0.0468 * 0.4694
        k = 0.049823
        got = m1.combine(m2)
        assert got.masses[2] == pytest.approx(0.5737 * 0.4572 / (1.0 - k), abs=1e-6)

    @given(a1=st.floats(min_value=0.0, max_value=1.0), a2=st.floats(min_value=0.0, max_value=1.0))
    def test_zero_when_all_focal_sets_intersect(self, a1, a2):
        # every focal set contains IS, so no pair is disjoint: K is exactly 0
        # and the products are not rescaled
        m1 = triple(a1, 0.0, 1.0 - a1)
        m2 = triple(a2, 0.0, 1.0 - a2)
        got = m1.combine(m2)
        assert got.masses[1] == 0.0
        assert got.masses[2] == (1.0 - a1) * (1.0 - a2)


class TestCombine:
    def test_vacuous_is_neutral_exact(self):
        m = triple(0.6429, 0.0714, 0.2857)
        vac = MassFunction((0.0, 0.0, 1.0))
        assert m.combine(vac) == m
        assert vac.combine(m) == m

    def test_worked_left_parts(self):
        m1 = triple(0.1080, 0.0206, 0.8714)
        m2 = triple(0.1659, 0.0416, 0.7925)
        got = m1.combine(m2)
        assert got.masses == pytest.approx((0.2500, 0.0539, 0.6961), abs=1e-4)

    def test_total_conflict(self):
        m1 = triple(1.0, 0.0, 0.0)
        m2 = triple(0.0, 1.0, 0.0)
        with pytest.raises(TotalConflict):
            m1.combine(m2)

    def test_near_total_conflict_is_total_conflict(self):
        # K = 1 - 4e-12 is under the refusal threshold, but 1 - K cancels so
        # badly that the normalized masses miss a unit sum by 2e-5
        x, y = (0.999999999998, 2e-12, 0.0), (2e-12, 0.999999999998, 0.0)
        message = "conflict coefficient is 0.9999999999960001; combination is undefined"
        with pytest.raises(TotalConflict) as err:
            fold((x, y))
        assert str(err.value) == message
        with pytest.raises(TotalConflict) as err:
            MassFunction(x).combine(MassFunction(y))
        assert str(err.value) == message

    def test_conflict_bound_is_one_minus_total_conflict_eps(self):
        # K of (x, 1 - x, 0) and (0, 1, 0) is x, and below the bound their
        # fusion is exact: (1 - x) / (1 - K) is 1
        bound = 1.0 - TOTAL_CONFLICT_EPS
        inside = math.nextafter(bound, 0.0)
        assert fold(((inside, 1.0 - inside, 0.0), (0.0, 1.0, 0.0))) == (0.0, 1.0, 0.0)
        with pytest.raises(TotalConflict):
            fold(((bound, 1.0 - bound, 0.0), (0.0, 1.0, 0.0)))

    def test_matches_brute_force(self):
        m1 = triple(0.1080, 0.0206, 0.8714)
        m2 = triple(0.1659, 0.0416, 0.7925)
        got = by_labels(m1.combine(m2))
        expected, _ = brute_combine(("IS", "NS"), by_labels(m1), by_labels(m2))
        for subset, value in expected.items():
            assert got.get(subset, 0.0) == pytest.approx(value, abs=1e-12)


class TestCombineAll:
    """Dempster's rule over several sources, folded left to right, as the
    fusion stage folds each side of a row."""

    def test_single_source(self):
        m = triple(0.6, 0.2, 0.2).masses
        assert fold([m]) == m

    def test_four_discounted_left_parts(self):
        # one decision maker's four criterion-discounted left parts
        parts = [
            triple(0.1714, 0.0571, 0.7715).masses,
            triple(0.2755, 0.0306, 0.6939).masses,
            triple(0.0428, 0.0143, 0.9429).masses,
            triple(0.2143, 0.0714, 0.7143).masses,
        ]
        assert fold(parts) == pytest.approx((0.5133, 0.0980, 0.3887), abs=2e-3)

    def test_four_discounted_right_parts(self):
        parts = [
            triple(0.3, 0.1, 0.6).masses,
            triple(0.5051, 0.0561, 0.4388).masses,
            triple(0.2572, 0.0857, 0.6571).masses,
            triple(0.4286, 0.1429, 0.4285).masses,
        ]
        assert fold(parts) == pytest.approx((0.8009, 0.0987, 0.1004), abs=2e-3)


class TestPignistic:
    def test_vacuous_splits_evenly(self):
        assert bet_ideal(MassFunction((0.0, 0.0, 1.0)).masses) == 0.5

    def test_final_supplier_row(self):
        m = triple(0.9833, 0.0119, 0.0048)
        assert bet_ideal(m.masses) == pytest.approx(0.9857, abs=1e-4)

    def test_matches_brute_force(self):
        m = triple(0.5, 0.2, 0.3)
        expected = brute_pignistic(("IS", "NS"), by_labels(m))
        assert bet_ideal(m.masses) == pytest.approx(expected["IS"], abs=1e-12)
