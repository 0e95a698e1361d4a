import math
import os
import subprocess
import sys

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from intervalfusion import MassFunction, bet_ideal, combine_all
from intervalfusion.errors import (
    EmptyEvidenceList,
    MassSumViolation,
    NegativeMass,
    TotalConflict,
)
from intervalfusion.evidence import FRAME, _settle, dempster

from reference import brute_combine, brute_pignistic
from test_properties import by_labels


def triple(a, b, c):
    return MassFunction((a, b, c))


class TestFrame:
    def test_masks(self):
        # the masses are those of {IS}, {NS} and the full frame, in that
        # order, as the diagnostics name them
        assert FRAME == ("IS", "NS")
        for i, labels in enumerate(("{'IS'}", "{'NS'}", "{'IS', 'NS'}")):
            masses = [0.0, 0.0, 0.0]
            masses[i] = -1.0
            with pytest.raises(NegativeMass) as err:
                MassFunction(masses)
            assert str(err.value) == f"mass for {labels} must be finite and non-negative, got -1.0"

    def test_full_frame_named_in_frame_order_under_any_hash_seed(self):
        # a set repr of the labels would print {'NS', 'IS'} under this seed
        code = (
            "from intervalfusion import MassFunction\n"
            "try:\n"
            "    MassFunction((0.5, 0.5, -1.0))\n"
            "except Exception as exc:\n"
            "    print(exc)\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            timeout=60,
            env={**os.environ, "PYTHONHASHSEED": "6"},
        )
        assert (result.returncode, result.stderr) == (0, b"")
        assert result.stdout == b"mass for {'IS', 'NS'} must be finite and non-negative, got -1.0\n"


class TestConstruction:
    def test_table_row(self):
        m = triple(0.60, 0.20, 0.20)
        assert m.masses == (0.60, 0.20, 0.20)
        assert [m.mass_of_mask(mask) for mask in (0b00, 0b01, 0b10, 0b11)] == [0.0, 0.60, 0.20, 0.20]

    def test_vacuous(self):
        assert MassFunction.vacuous().masses == (0.0, 0.0, 1.0)

    def test_sum_violation(self):
        with pytest.raises(MassSumViolation):
            triple(0.7, 0.7, 0.0)

    def test_negative_mass(self):
        with pytest.raises(NegativeMass):
            triple(0.7, 0.7, -0.4)

    def test_nan_mass(self):
        with pytest.raises(NegativeMass):
            triple(float("nan"), 0.5, 0.5)

    @pytest.mark.parametrize("masses", [(0.5, 0.5), (0.5, 0.5, 0.0, 0.0)])
    def test_not_a_triple_rejected(self, masses):
        with pytest.raises(ValueError):
            MassFunction(masses)

    def test_rounded_table_row_renormalized(self):
        # four-decimal published data: sum deviates by well under 1e-6
        m = triple(0.6429, 0.0714, 0.2857)
        assert sum(m.masses) == pytest.approx(1.0, abs=1e-12)

    def test_large_deviation_rejected(self):
        with pytest.raises(MassSumViolation):
            triple(0.6429, 0.0714, 0.29)

    def test_zero_masses_dropped(self):
        # a zero mass, -0.0 included, is stored as +0.0: no focal set
        m = triple(0.5, 0.5, -0.0)
        assert m.masses == (0.5, 0.5, 0.0)
        assert math.copysign(1.0, m.masses[2]) == 1.0
        assert m == triple(0.5, 0.5, 0)


def fsum_policy(a, b, c):
    """The sum policy without the plain-sum shortcut: reject a sum more than
    1e-6 from 1 (by ``math.fsum``), divide each mass by one more than 1e-12
    from 1, else keep the masses."""
    total = math.fsum((a, b, c))
    if abs(total - 1.0) > 1e-6:
        raise MassSumViolation(f"masses sum to {total!r}, expected 1")
    if abs(total - 1.0) > 1e-12:
        return a / total, b / total, c / total
    return a, b, c


def policy_outcome(policy, t):
    try:
        return [v.hex() for v in policy(*t)]
    except MassSumViolation as exc:
        return type(exc).__name__, str(exc)


@st.composite
def near_policy_edges(draw):
    """Non-negative triples whose exact sum lies within a few ulp of a
    tolerance edge of the sum policy: 1 +- 1e-12, 1 +- 1e-6, or the edge
    1 +- (1e-12 - 1e-15) of the plain-sum shortcut."""
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
    # plain sums within 1e-12 of 1 whose exact sums are not: a shortcut
    # bound of EXACT_SUM_TOLERANCE itself would keep them where fsum divides
    @example(t=tuple(map(float.fromhex, ("0x1.f79dbd74f5eaap-2", "0x1.ae2cc770f1c6ep-3", "0x1.314bded29597dp-2"))))
    @example(t=tuple(map(float.fromhex, ("0x1.91fb0547ce95cp-2", "0x1.f14305c5411e6p-3", "0x1.756377d58c752p-2"))))
    @example(t=(0.5, 0.25, 0.25 + 1e-12))
    @example(t=(0.5, 0.25, 0.25 - 1e-6))
    @example(t=(0.0, 0.0, 1.0 + 2e-6))
    def test_shortcut_matches_fsum_policy(self, t):
        # the same settled masses bit for bit, or the same error and message
        assert policy_outcome(_settle, t) == policy_outcome(fsum_policy, t)


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
        vac = MassFunction.vacuous()
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
            dempster(x, y)
        assert str(err.value) == message
        with pytest.raises(TotalConflict) as err:
            MassFunction(x).combine(MassFunction(y))
        assert str(err.value) == message

    def test_matches_brute_force(self):
        m1 = triple(0.1080, 0.0206, 0.8714)
        m2 = triple(0.1659, 0.0416, 0.7925)
        got = by_labels(m1.combine(m2))
        expected, _ = brute_combine(("IS", "NS"), by_labels(m1), by_labels(m2))
        for subset, value in expected.items():
            assert got.get(subset, 0.0) == pytest.approx(value, abs=1e-12)


class TestCombineAll:
    def test_single_source(self):
        m = triple(0.6, 0.2, 0.2)
        assert combine_all([m]) == m

    def test_empty_rejected(self):
        with pytest.raises(EmptyEvidenceList):
            combine_all([])

    def test_four_discounted_left_parts(self):
        # one decision maker's four criterion-discounted left parts
        parts = [
            triple(0.1714, 0.0571, 0.7715),
            triple(0.2755, 0.0306, 0.6939),
            triple(0.0428, 0.0143, 0.9429),
            triple(0.2143, 0.0714, 0.7143),
        ]
        got = combine_all(parts)
        assert got.masses == pytest.approx((0.5133, 0.0980, 0.3887), abs=2e-3)

    def test_four_discounted_right_parts(self):
        parts = [
            triple(0.3, 0.1, 0.6),
            triple(0.5051, 0.0561, 0.4388),
            triple(0.2572, 0.0857, 0.6571),
            triple(0.4286, 0.1429, 0.4285),
        ]
        got = combine_all(parts)
        assert got.masses == pytest.approx((0.8009, 0.0987, 0.1004), abs=2e-3)


class TestPignistic:
    def test_vacuous_splits_evenly(self):
        assert bet_ideal(MassFunction.vacuous()) == 0.5

    def test_final_supplier_row(self):
        m = triple(0.9833, 0.0119, 0.0048)
        assert bet_ideal(m) == pytest.approx(0.9857, abs=1e-4)

    def test_matches_brute_force(self):
        m = triple(0.5, 0.2, 0.3)
        expected = brute_pignistic(("IS", "NS"), by_labels(m))
        assert bet_ideal(m) == pytest.approx(expected["IS"], abs=1e-12)
