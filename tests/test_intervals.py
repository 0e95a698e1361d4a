import pytest
from hypothesis import given, strategies as st

from intervalfusion import Interval, MassFunction, bundled_dataset_bytes, load_problem
from intervalfusion.errors import InvalidAlpha, NegativeMass


class TestConstruction:
    def test_basic(self):
        iv = Interval(0.20, 0.35)
        assert (iv.lo, iv.hi) == (0.20, 0.35)

    def test_degenerate(self):
        iv = Interval(0.5, 0.5)
        assert iv.lo == iv.hi == 0.5

    @pytest.mark.parametrize(
        "build, error",
        [(lambda: MassFunction((10**400, 0, 0)), NegativeMass)],
        ids=["mass"],
    )
    def test_int_beyond_float_range_rejected(self, build, error):
        # float() of such an int raises OverflowError; it is non-finite here
        with pytest.raises(error) as err:
            build()
        assert "finite" in str(err.value)

    @pytest.mark.parametrize(
        "build, error, named",
        [
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
        ids=["mass", "negative-mass", "alpha"],
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
        ids=["str-masses", "none-mass", "bool-mass", "no-masses"],
    )
    def test_not_a_number_rejected_and_named(self, build, error, message):
        # a value that is not an int or float is not converted with float()
        with pytest.raises(error) as err:
            build()
        assert str(err.value) == message


unit_floats = st.floats(min_value=0.0, max_value=10.0, allow_nan=False)


class TestProperties:
    @given(x=unit_floats)
    def test_point_has_zero_width(self, x):
        p = Interval(x, x)
        assert p.lo == p.hi == x
