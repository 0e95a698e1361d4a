"""Linguistic terms as documents give them: the built-in scales, user scales
and their diagnostics, and the alpha-cut that reads a tfn term, a triangular
fuzzy number ``(a, b, c)``, as an interval."""

import json
import math
import re
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

from intervalfusion import Interval, load_problem
from intervalfusion.errors import InvalidAlpha, ParseError, SchemaError, ValidationError
from intervalfusion.loading import as_interval

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_scale_table():
    """README's table of the built-in scales: label -> (interval, vertices)."""
    rows = re.findall(r"^\| (.+?) \| \[(.+?)\] \| \((.+?)\) \|$", README.read_text(encoding="utf-8"), re.M)
    assert len(rows) == 5
    return {
        label: (tuple(map(float, iv.split(", "))), tuple(map(float, tfn.split(", "))))
        for label, iv, tfn in rows
    }


def document(weights, scales=None) -> str:
    """A one-cell document whose decision makers weigh ``weights`` in turn."""
    names = [f"DM{i + 1}" for i in range(len(weights))]
    doc = {
        "schema_version": "1",
        "alternatives": ["A1"],
        "criteria": ["C1"],
        "decision_makers": [
            {"name": name, "weight": w, "criterion_weights": [1]} for name, w in zip(names, weights)
        ],
        "ratings": {name: {"A1": {"C1": [0.6, 0.2, 0.2]}} for name in names},
    }
    if scales is not None:
        doc["scales"] = scales
    return json.dumps(doc)


def load_term(label, scale, alpha=0.0, scales=None) -> Interval:
    return load_problem(document([{"term": label, "scale": scale}], scales), alpha=alpha).dm_weights[0]


def load_scale(kind, terms):
    """Load a document that defines the scale ``s`` and weighs its first term."""
    return load_term(next(iter(terms)), "s", scales={"s": {"kind": kind, "terms": terms}})


def rejection(error, load):
    with pytest.raises(error) as err:
        load()
    return str(err.value)


class TestConstruction:
    def test_invalid_vertices(self):
        message = rejection(ValidationError, lambda: load_scale("tfn", {"T": [0.5, 0.3, 0.7]}))
        assert message == "scales['s'].terms['T']: vertices must satisfy a <= b <= c, got (0.5, 0.3, 0.7)"

    @pytest.mark.parametrize(
        "vertices, alpha",
        [
            # b - a overflows to inf and the clamp returned b: [1e308, 1.07e308]
            ([-1.7e308, 1e308, 1.7e308], 0.9),
            # c - a overflows, so the cut's width is inf - inf
            ([-1.7e308, -1e308, 1e308], 0.0),
        ],
        ids=["low-end-clamped", "nan-endpoint"],
    )
    def test_overflowing_support_rejected(self, vertices, alpha):
        scales = {"wide": {"kind": "tfn", "terms": {"T": vertices}}}
        message = rejection(ValidationError, lambda: load_term("T", "wide", alpha, scales))
        a, b, c = vertices
        assert message == f"scales['wide'].terms['T']: vertices must have a finite c - a, got ({a}, {b}, {c})"


class TestAlphaCut:
    def test_support_at_zero(self):
        assert as_interval((0.3, 0.5, 0.7), 0.0) == Interval(0.3, 0.7)

    def test_peak_at_one(self):
        cut = as_interval((0.3, 0.5, 0.7), 1.0)
        assert (cut.lo, cut.hi) == pytest.approx((0.5, 0.5), abs=1e-9)

    def test_halfway(self):
        cut = as_interval((0.1, 0.3, 0.5), 0.5)
        assert (cut.lo, cut.hi) == pytest.approx((0.2, 0.4), abs=1e-9)

    def test_rounding_past_the_peak_is_clamped(self):
        # c - 1.0 * (c - b) rounds 2.8e-9 below b for these vertices
        a, b, c = 3338795.472462671, 3360657.0086845933, 87707394.41313182
        assert as_interval((a, b, c), 1.0) == Interval(b, b)

    @pytest.mark.parametrize("alpha", [-0.1, 1.1, True, "0.5", 10**400, math.nan, math.inf],
                             ids=["below", "above", "bool", "str", "int-beyond-float", "nan", "inf"])
    def test_invalid_alpha(self, alpha):
        # alpha is a number as a mass or an endpoint is: a finite int or float
        message = rejection(InvalidAlpha, lambda: load_problem(document([0.5]), alpha=alpha))
        assert message == f"alpha must lie in [0, 1], got {alpha!r}"

    def test_as_interval_passthrough(self):
        iv = Interval(0.1, 0.2)
        assert as_interval(iv, 0.7) is iv
        assert as_interval((0.3, 0.5, 0.7), 0.0) == Interval(0.3, 0.7)


class TestScales:
    def test_interval_scale_lookup(self):
        assert load_term("Medium (M)", "interval-default") == Interval(0.3, 0.7)
        assert load_term("High (H)", "interval-default", alpha=0.6) == Interval(0.5, 0.9)

    def test_tfn_scale_lookup(self):
        assert load_term("Very high (VH)", "kaufmann-tfn") == Interval(0.7, 1.0)
        assert load_term("Very high (VH)", "kaufmann-tfn", alpha=1) == Interval(0.9, 0.9)

    def test_unknown_term(self):
        message = rejection(ValidationError, lambda: load_term("Extreme", "kaufmann-tfn"))
        assert message == (
            "decision_makers[0].weight.term: unknown term 'Extreme' in scale 'kaufmann-tfn'; "
            "valid terms: 'Very low (VL)', 'Low (L)', 'Medium (M)', 'High (H)', 'Very high (VH)'"
        )

    def test_lookup_total_and_deterministic(self):
        # every README term of both scales, each referenced twice
        weights = [
            {"term": label, "scale": scale}
            for label in readme_scale_table()
            for scale in ("interval-default", "kaufmann-tfn")
        ]
        text = document(weights * 2)
        for alpha in (0.0, 0.5, 1.0):
            first = load_problem(text, alpha=alpha).dm_weights
            assert load_problem(text, alpha=alpha).dm_weights == first
            assert first[: len(weights)] == first[len(weights) :]

    def test_full_interval_table(self):
        for label, (iv, _) in readme_scale_table().items():
            for alpha in (0.0, 1.0):
                assert load_term(label, "interval-default", alpha) == Interval(*iv)

    def test_full_tfn_table(self):
        for label, (_, (a, b, c)) in readme_scale_table().items():
            assert load_term(label, "kaufmann-tfn", 0.0) == Interval(a, c)
            assert load_term(label, "kaufmann-tfn", 1.0) == Interval(b, b)

    def test_tfn_supports_match_interval_scale(self):
        # alpha = 0 bridges each tfn term to its interval counterpart
        for label in readme_scale_table():
            assert load_term(label, "kaufmann-tfn") == load_term(label, "interval-default")

    def test_duplicate_labels_rejected(self):
        text = document([0.5], {"s": {"kind": "interval", "terms": {"Dup1": [0, 1], "Dup2": [0, 1]}}})
        message = rejection(ParseError, lambda: load_problem(text.replace('"Dup2"', '"Dup1"')))
        assert message == "duplicate key 'Dup1'"

    def test_kind_mismatch_rejected(self):
        # each kind takes its own arity
        message = rejection(SchemaError, lambda: load_scale("interval", {"T": [0.1, 0.2, 0.3]}))
        assert message == "scales['s'].terms['T']: expected 2 numbers, got 3"
        message = rejection(SchemaError, lambda: load_scale("tfn", {"T": [0.1, 0.3]}))
        assert message == "scales['s'].terms['T']: expected 3 numbers, got 2"

    def test_inverted_interval_term_rejected(self):
        message = rejection(ValidationError, lambda: load_scale("interval", {"T": [0.9, 0.1]}))
        assert message == "scales['s'].terms['T']: lower endpoint 0.9 exceeds upper endpoint 0.1"

    def test_unknown_kind_rejected(self):
        message = rejection(SchemaError, lambda: load_scale("trapezoid", {"T": [0, 0.1, 0.2, 0.3]}))
        assert message == "scales['s'].kind: must be 'interval' or 'tfn', got 'trapezoid'"


unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


@st.composite
def tfns(draw):
    a = draw(unit)
    b = draw(st.floats(min_value=a, max_value=1.0, allow_nan=False))
    c = draw(st.floats(min_value=b, max_value=1.0, allow_nan=False))
    return a, b, c


class TestFuzzyProperties:
    @given(
        vertices=st.lists(st.floats(min_value=-1e12, max_value=1e12), min_size=3, max_size=3),
        alpha=st.floats(min_value=0.0, max_value=1.0),
    )
    @example(vertices=[3338795.472462671, 3360657.0086845933, 87707394.41313182], alpha=1.0)
    def test_cut_contains_the_peak(self, vertices, alpha):
        a, b, c = sorted(vertices)
        cut = as_interval((a, b, c), alpha)
        assert cut.lo <= b <= cut.hi

    @given(t=tfns(), a1=unit, a2=unit)
    def test_alpha_cuts_nested(self, t, a1, a2):
        lo_alpha, hi_alpha = min(a1, a2), max(a1, a2)
        outer = as_interval(t, lo_alpha)
        inner = as_interval(t, hi_alpha)
        assert outer.lo <= inner.lo + 1e-12
        assert inner.hi <= outer.hi + 1e-12
