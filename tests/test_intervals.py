import pytest
from hypothesis import given, strategies as st

from intervalfusion import Interval, MassFunction, bundled_dataset_bytes, load_problem
from intervalfusion.errors import (
    InvalidAlpha,
    InvalidInterval,
    NegativeMass,
)


class TestConstruction:
    def test_basic(self):
        iv = Interval(0.20, 0.35)
        assert (iv.lo, iv.hi) == (0.20, 0.35)

    def test_degenerate(self):
        iv = Interval(0.5, 0.5)
        assert iv.lo == iv.hi == 0.5

    def test_inverted_rejected(self):
        with pytest.raises(InvalidInterval):
            Interval(0.9, 0.1)

    @pytest.mark.parametrize(
        "build, error",
        [
            (lambda: Interval(0, 10**400), InvalidInterval),
            (lambda: MassFunction((10**400, 0, 0)), NegativeMass),
        ],
        ids=["interval", "mass"],
    )
    def test_int_beyond_float_range_rejected(self, build, error):
        # float() of such an int raises OverflowError; it is non-finite here
        with pytest.raises(error) as err:
            build()
        assert "finite" in str(err.value)

    @pytest.mark.parametrize(
        "build, error, named",
        [
            (lambda: Interval(0, 10**5000), InvalidInterval, "[0, <int of 16610 bits>]"),
            (lambda: MassFunction((10**5000, 0, 0)), NegativeMass, "got <int of 16610 bits>"),
            (
                lambda: MassFunction((-(10**5000), 0, 0)),
                NegativeMass,
                "got <negative int of 16610 bits>",
            ),
            (
                lambda: load_problem(bundled_dataset_bytes(), alpha=10**5000),
                InvalidAlpha,
                "got <int of 16610 bits>",
            ),
        ],
        ids=["interval", "mass", "negative-mass", "alpha"],
    )
    def test_int_too_long_for_repr_named_in_message(self, build, error, named):
        # repr() of an int over the interpreter's digit limit (4300 by
        # default) raises ValueError, so the message names its bit length
        with pytest.raises(error) as err:
            build()
        assert named in str(err.value)

    @pytest.mark.parametrize(
        "build, error, message",
        [
            (lambda: Interval("0.1", "0.2"), InvalidInterval, "endpoints must be finite numbers, got ['0.1', '0.2']"),
            (lambda: Interval("x", 1), InvalidInterval, "endpoints must be finite numbers, got ['x', 1]"),
            (lambda: Interval(None, 1), InvalidInterval, "endpoints must be finite numbers, got [None, 1]"),
            (lambda: Interval(0, True), InvalidInterval, "endpoints must be finite numbers, got [0, True]"),
            (
                lambda: MassFunction(("0.5", "0.5", "0")),
                NegativeMass,
                "mass for {'IS'} must be finite and non-negative, got '0.5'",
            ),
            (
                lambda: MassFunction((0.0, None, 1.0)),
                NegativeMass,
                "mass for {'NS'} must be finite and non-negative, got None",
            ),
            (
                lambda: MassFunction((0.0, 0.0, True)),
                NegativeMass,
                "mass for {'IS', 'NS'} must be finite and non-negative, got True",
            ),
            (lambda: MassFunction(None), NegativeMass, "masses must be three numbers, got a NoneType"),
        ],
        ids=["str-interval", "word", "none", "bool", "str-masses", "none-mass", "bool-mass", "no-masses"],
    )
    def test_not_a_number_rejected_and_named(self, build, error, message):
        # a value that is not an int or float is not converted with float()
        with pytest.raises(error) as err:
            build()
        assert str(err.value) == message

    def test_tiny_inversion_clamped(self):
        iv = Interval(0.5 + 5e-13, 0.5)
        assert iv.lo == iv.hi == 0.5 + 5e-13

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(InvalidInterval):
            Interval(bad, 1.0)
        with pytest.raises(InvalidInterval):
            Interval(0.0, bad)


unit_floats = st.floats(min_value=0.0, max_value=10.0, allow_nan=False)


class TestProperties:
    @given(x=unit_floats)
    def test_point_has_zero_width(self, x):
        p = Interval(x, x)
        assert p.lo == p.hi == x
