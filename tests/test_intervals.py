import pytest
from hypothesis import given, strategies as st

from intervalfusion import Interval, bundled_dataset_bytes, load_problem
from intervalfusion.errors import InvalidAlpha


class TestConstruction:
    def test_basic(self):
        iv = Interval(0.20, 0.35)
        assert (iv.lo, iv.hi) == (0.20, 0.35)

    def test_degenerate(self):
        iv = Interval(0.5, 0.5)
        assert iv.lo == iv.hi == 0.5

    @pytest.mark.parametrize(
        "alpha, named",
        [(10**5000, "got <int of 16610 bits>"), (-(10**5000), "got <negative int of 16610 bits>")],
        ids=["alpha", "negative-alpha"],
    )
    def test_int_too_long_for_repr_named_in_message(self, alpha, named):
        # repr() of an int over the interpreter's digit limit (4300 by
        # default) raises ValueError, so the message names its bit length
        with pytest.raises(InvalidAlpha) as err:
            load_problem(bundled_dataset_bytes(), alpha=alpha)
        assert named in str(err.value)


unit_floats = st.floats(min_value=0.0, max_value=10.0, allow_nan=False)


class TestProperties:
    @given(x=unit_floats)
    def test_point_has_zero_width(self, x):
        p = Interval(x, x)
        assert p.lo == p.hi == x
