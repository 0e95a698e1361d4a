import pytest
from hypothesis import example, given, strategies as st

from intervalfusion import (
    INTERVAL_DEFAULT_SCALE,
    KAUFMANN_TFN_SCALE,
    Interval,
    LinguisticScale,
    TriangularFuzzyNumber,
    as_interval,
    builtin_scales,
)
from intervalfusion.errors import (
    InvalidAlpha,
    InvalidFuzzyNumber,
    UnknownTerm,
)


class TestConstruction:
    def test_invalid_vertices(self):
        with pytest.raises(InvalidFuzzyNumber):
            TriangularFuzzyNumber(0.5, 0.3, 0.7)
        with pytest.raises(InvalidFuzzyNumber):
            TriangularFuzzyNumber(0.3, float("nan"), 0.7)


class TestAlphaCut:
    def test_support_at_zero(self):
        cut = TriangularFuzzyNumber(0.3, 0.5, 0.7).alpha_cut(0.0)
        assert cut == Interval(0.3, 0.7)

    def test_peak_at_one(self):
        cut = TriangularFuzzyNumber(0.3, 0.5, 0.7).alpha_cut(1.0)
        assert (cut.lo, cut.hi) == pytest.approx((0.5, 0.5), abs=1e-9)

    def test_halfway(self):
        cut = TriangularFuzzyNumber(0.1, 0.3, 0.5).alpha_cut(0.5)
        assert (cut.lo, cut.hi) == pytest.approx((0.2, 0.4), abs=1e-9)

    def test_rounding_past_the_peak_is_clamped(self):
        # c - 1.0 * (c - b) rounds 2.8e-9 below b for these vertices
        t = TriangularFuzzyNumber(3338795.472462671, 3360657.0086845933, 87707394.41313182)
        assert t.alpha_cut(1.0) == Interval(t.b, t.b)

    @pytest.mark.parametrize("alpha", [-0.1, 1.1])
    def test_invalid_alpha(self, alpha):
        with pytest.raises(InvalidAlpha):
            TriangularFuzzyNumber(0.3, 0.5, 0.7).alpha_cut(alpha)

    def test_as_interval_passthrough(self):
        iv = Interval(0.1, 0.2)
        assert as_interval(iv, 0.7) is iv
        assert as_interval(TriangularFuzzyNumber(0.3, 0.5, 0.7)) == Interval(0.3, 0.7)


class TestScales:
    def test_interval_scale_lookup(self):
        assert INTERVAL_DEFAULT_SCALE.lookup("Medium (M)") == Interval(0.3, 0.7)
        assert INTERVAL_DEFAULT_SCALE.lookup("High (H)") == Interval(0.5, 0.9)

    def test_tfn_scale_lookup(self):
        assert KAUFMANN_TFN_SCALE.lookup("Very high (VH)") == TriangularFuzzyNumber(0.7, 0.9, 1.0)

    def test_unknown_term(self):
        with pytest.raises(UnknownTerm) as err:
            INTERVAL_DEFAULT_SCALE.lookup("Extreme")
        # the diagnostic lists the valid terms, each quoted
        assert "'Medium (M)'" in str(err.value)

    def test_lookup_total_and_deterministic(self):
        for scale in builtin_scales().values():
            for label, _ in scale.terms:
                assert scale.lookup(label) == scale.lookup(label)

    def test_full_interval_table(self):
        expected = {
            "Very low (VL)": (0.0, 0.3),
            "Low (L)": (0.1, 0.5),
            "Medium (M)": (0.3, 0.7),
            "High (H)": (0.5, 0.9),
            "Very high (VH)": (0.7, 1.0),
        }
        assert {l: (v.lo, v.hi) for l, v in INTERVAL_DEFAULT_SCALE.terms} == expected

    def test_full_tfn_table(self):
        expected = {
            "Very low (VL)": (0.0, 0.1, 0.3),
            "Low (L)": (0.1, 0.3, 0.5),
            "Medium (M)": (0.3, 0.5, 0.7),
            "High (H)": (0.5, 0.7, 0.9),
            "Very high (VH)": (0.7, 0.9, 1.0),
        }
        assert {l: (v.a, v.b, v.c) for l, v in KAUFMANN_TFN_SCALE.terms} == expected

    def test_tfn_supports_match_interval_scale(self):
        # alpha = 0 bridges each tfn term to its interval counterpart
        for (label, tfn), (label2, iv) in zip(
            KAUFMANN_TFN_SCALE.terms, INTERVAL_DEFAULT_SCALE.terms
        ):
            assert label == label2
            assert tfn.alpha_cut(0) == iv

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError):
            LinguisticScale(
                name="x",
                kind="interval",
                terms=(("A", Interval(0, 1)), ("A", Interval(0, 1))),
            )

    def test_kind_mismatch_rejected(self):
        with pytest.raises(ValueError):
            LinguisticScale(name="x", kind="tfn", terms=(("A", Interval(0, 1)),))


unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


@st.composite
def tfns(draw):
    a = draw(unit)
    b = draw(st.floats(min_value=a, max_value=1.0, allow_nan=False))
    c = draw(st.floats(min_value=b, max_value=1.0, allow_nan=False))
    return TriangularFuzzyNumber(a, b, c)


class TestFuzzyProperties:
    @given(
        vertices=st.lists(st.floats(min_value=-1e12, max_value=1e12), min_size=3, max_size=3),
        alpha=st.floats(min_value=0.0, max_value=1.0),
    )
    @example(vertices=[3338795.472462671, 3360657.0086845933, 87707394.41313182], alpha=1.0)
    def test_cut_contains_the_peak(self, vertices, alpha):
        a, b, c = sorted(vertices)
        cut = TriangularFuzzyNumber(a, b, c).alpha_cut(alpha)
        assert cut.lo <= b <= cut.hi

    @given(t=tfns(), a1=unit, a2=unit)
    def test_alpha_cuts_nested(self, t, a1, a2):
        lo_alpha, hi_alpha = min(a1, a2), max(a1, a2)
        outer = t.alpha_cut(lo_alpha)
        inner = t.alpha_cut(hi_alpha)
        assert outer.lo <= inner.lo + 1e-12
        assert inner.hi <= outer.hi + 1e-12
