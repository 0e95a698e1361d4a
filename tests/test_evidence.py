import pytest
from hypothesis import given, strategies as st

from intervalfusion import MassFunction, bet_ideal, combine_all
from intervalfusion.errors import (
    EmptyEvidenceList,
    EmptyFocalSet,
    FrameMismatch,
    MassSumViolation,
    NegativeMass,
    TotalConflict,
)
from intervalfusion.evidence import FRAME

from reference import brute_combine, brute_pignistic
from test_properties import by_labels


def triple(a, b, c):
    return MassFunction({0b01: a, 0b10: b, 0b11: c})


class TestFrame:
    def test_masks(self):
        # element i of the frame is bit i, as the diagnostics name them
        assert FRAME == ("IS", "NS")
        for mask, labels in ((0b01, {"IS"}), (0b10, {"NS"}), (0b11, {"IS", "NS"})):
            with pytest.raises(NegativeMass) as err:
                MassFunction({mask: -1.0})
            assert str(err.value) == f"mass for {labels!r} must be finite and non-negative, got -1.0"


class TestConstruction:
    def test_table_row(self):
        m = triple(0.60, 0.20, 0.20)
        assert m.mass_of_mask(0b01) == 0.60
        assert m.mass_of_mask(0b10) == 0.20
        assert m.mass_of_mask(0b11) == 0.20

    def test_vacuous(self):
        assert MassFunction.vacuous().masses == {0b11: 1.0}

    def test_sum_violation(self):
        with pytest.raises(MassSumViolation):
            triple(0.7, 0.7, 0.0)

    def test_negative_mass(self):
        with pytest.raises(NegativeMass):
            triple(0.7, 0.7, -0.4)

    def test_nan_mass(self):
        with pytest.raises(NegativeMass):
            triple(float("nan"), 0.5, 0.5)

    def test_empty_focal_set(self):
        with pytest.raises(EmptyFocalSet):
            MassFunction({0b00: 0.5, 0b01: 0.5})

    def test_mask_outside_frame(self):
        with pytest.raises(FrameMismatch) as err:
            MassFunction({0b100: 1.0})
        assert str(err.value) == "subset mask 4 does not fit frame ('IS', 'NS')"

    def test_rounded_table_row_renormalized(self):
        # four-decimal published data: sum deviates by well under 1e-6
        m = triple(0.6429, 0.0714, 0.2857)
        assert sum(m.masses.values()) == pytest.approx(1.0, abs=1e-12)

    def test_large_deviation_rejected(self):
        with pytest.raises(MassSumViolation):
            triple(0.6429, 0.0714, 0.29)

    def test_zero_masses_dropped(self):
        m = triple(0.5, 0.5, 0.0)
        assert set(m.masses) == {0b01, 0b10}
        assert m == MassFunction({0b01: 0.5, 0b10: 0.5})


class TestConflict:
    """The conflict coefficient K, seen through the 1 - K normalizer of combine."""

    def test_worked_value(self):
        m1 = triple(0.3795, 0.0468, 0.5737)
        m2 = triple(0.4694, 0.0734, 0.4572)
        # K = 0.3795 * 0.0734 + 0.0468 * 0.4694
        k = 0.049823
        got = m1.combine(m2)
        assert got.mass_of_mask(0b11) == pytest.approx(0.5737 * 0.4572 / (1.0 - k), abs=1e-6)

    @given(a1=st.floats(min_value=0.0, max_value=1.0), a2=st.floats(min_value=0.0, max_value=1.0))
    def test_zero_when_all_focal_sets_intersect(self, a1, a2):
        # every focal set contains IS, so no pair is disjoint: K is exactly 0
        # and the products are not rescaled
        m1 = MassFunction({0b01: a1, 0b11: 1.0 - a1})
        m2 = MassFunction({0b01: a2, 0b11: 1.0 - a2})
        got = m1.combine(m2)
        assert got.mass_of_mask(0b10) == 0.0
        assert got.mass_of_mask(0b11) == (1.0 - a1) * (1.0 - a2)


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
        assert got.mass_of_mask(0b01) == pytest.approx(0.2500, abs=1e-4)
        assert got.mass_of_mask(0b10) == pytest.approx(0.0539, abs=1e-4)
        assert got.mass_of_mask(0b11) == pytest.approx(0.6961, abs=1e-4)

    def test_total_conflict(self):
        m1 = MassFunction({0b01: 1.0})
        m2 = MassFunction({0b10: 1.0})
        with pytest.raises(TotalConflict):
            m1.combine(m2)

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
        assert got.mass_of_mask(0b01) == pytest.approx(0.5133, abs=2e-3)
        assert got.mass_of_mask(0b10) == pytest.approx(0.0980, abs=2e-3)
        assert got.mass_of_mask(0b11) == pytest.approx(0.3887, abs=2e-3)

    def test_four_discounted_right_parts(self):
        parts = [
            triple(0.3, 0.1, 0.6),
            triple(0.5051, 0.0561, 0.4388),
            triple(0.2572, 0.0857, 0.6571),
            triple(0.4286, 0.1429, 0.4285),
        ]
        got = combine_all(parts)
        assert got.mass_of_mask(0b01) == pytest.approx(0.8009, abs=2e-3)
        assert got.mass_of_mask(0b10) == pytest.approx(0.0987, abs=2e-3)
        assert got.mass_of_mask(0b11) == pytest.approx(0.1004, abs=2e-3)


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
