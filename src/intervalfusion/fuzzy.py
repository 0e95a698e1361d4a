"""Triangular fuzzy numbers and linguistic rating scales.

Linguistic weights ("High", "Medium", ...) enter the pipeline through a
:class:`LinguisticScale` that maps each term either to an interval or to a
triangular fuzzy number. A fuzzy value is only ever read as an interval,
through its alpha-cut (:func:`as_interval`); alpha = 0 takes the full
support, which makes the bundled TFN scale consistent with the bundled
interval scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

from .errors import InvalidAlpha, InvalidFuzzyNumber, UnknownTerm
from .intervals import Interval, describe, to_float


@dataclass(frozen=True)
class TriangularFuzzyNumber:
    """Triplet ``(a, b, c)`` with ``a <= b <= c``: membership rises linearly
    from ``a`` to 1 at the peak ``b`` and falls back to 0 at ``c``.

    Degenerate flanks (``a == b`` or ``b == c``) are legal.
    """

    a: float
    b: float
    c: float

    def __post_init__(self) -> None:
        a, b, c = to_float(self.a), to_float(self.b), to_float(self.c)
        if not (math.isfinite(a) and math.isfinite(b) and math.isfinite(c)):
            vertices = ", ".join(map(describe, (self.a, self.b, self.c)))
            raise InvalidFuzzyNumber(f"vertices must be finite, got ({vertices})")
        if not a <= b <= c:
            raise InvalidFuzzyNumber(f"vertices must satisfy a <= b <= c, got ({a}, {b}, {c})")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)

    def alpha_cut(self, alpha: float) -> Interval:
        """The interval of points with membership >= ``alpha``.

        ``alpha = 0`` returns the full support ``[a, c]``; ``alpha = 1``
        collapses to the peak ``[b, b]``.
        """
        if not 0.0 <= alpha <= 1.0:
            raise InvalidAlpha(f"alpha must lie in [0, 1], got {describe(alpha)}")
        # rounding may carry an endpoint past the peak, which the cut contains
        lo = min(self.a + alpha * (self.b - self.a), self.b)
        hi = max(self.c - alpha * (self.c - self.b), self.b)
        return Interval(lo, hi)


ScaleValue = Union[Interval, TriangularFuzzyNumber]

INTERVAL_KIND = "interval"
TFN_KIND = "tfn"


@dataclass(frozen=True)
class LinguisticScale:
    """Ordered mapping from linguistic term labels to scale values.

    ``kind`` is ``"interval"`` or ``"tfn"`` and every term value must match it.
    """

    name: str
    kind: str
    terms: tuple[tuple[str, ScaleValue], ...]

    def __post_init__(self) -> None:
        if self.kind not in (INTERVAL_KIND, TFN_KIND):
            raise ValueError(f"scale kind must be {INTERVAL_KIND!r} or {TFN_KIND!r}, got {self.kind!r}")
        terms = tuple(self.terms)
        expected = Interval if self.kind == INTERVAL_KIND else TriangularFuzzyNumber
        seen: set[str] = set()
        for label, value in terms:
            if label in seen:
                raise ValueError(f"duplicate term label {label!r} in scale {self.name!r}")
            seen.add(label)
            if not isinstance(value, expected):
                raise ValueError(
                    f"term {label!r} of scale {self.name!r} must be a {expected.__name__}"
                )
        object.__setattr__(self, "terms", terms)

    def lookup(self, term: str) -> ScaleValue:
        for label, value in self.terms:
            if label == term:
                return value
        valid = ", ".join(repr(label) for label, _ in self.terms)
        raise UnknownTerm(f"unknown term {term!r} in scale {self.name!r}; valid terms: {valid}")


#: Five-term interval scale for importance weights.
INTERVAL_DEFAULT_SCALE = LinguisticScale(
    name="interval-default",
    kind=INTERVAL_KIND,
    terms=(
        ("Very low (VL)", Interval(0.0, 0.3)),
        ("Low (L)", Interval(0.1, 0.5)),
        ("Medium (M)", Interval(0.3, 0.7)),
        ("High (H)", Interval(0.5, 0.9)),
        ("Very high (VH)", Interval(0.7, 1.0)),
    ),
)

#: Five-term triangular-fuzzy-number scale; each term's support equals the
#: corresponding interval of ``interval-default``.
KAUFMANN_TFN_SCALE = LinguisticScale(
    name="kaufmann-tfn",
    kind=TFN_KIND,
    terms=(
        ("Very low (VL)", TriangularFuzzyNumber(0.0, 0.1, 0.3)),
        ("Low (L)", TriangularFuzzyNumber(0.1, 0.3, 0.5)),
        ("Medium (M)", TriangularFuzzyNumber(0.3, 0.5, 0.7)),
        ("High (H)", TriangularFuzzyNumber(0.5, 0.7, 0.9)),
        ("Very high (VH)", TriangularFuzzyNumber(0.7, 0.9, 1.0)),
    ),
)


def builtin_scales() -> dict[str, LinguisticScale]:
    """Fresh name -> scale mapping of the bundled scales."""
    return {s.name: s for s in (INTERVAL_DEFAULT_SCALE, KAUFMANN_TFN_SCALE)}


def as_interval(value: ScaleValue, alpha: float = 0.0) -> Interval:
    """Bridge a scale value to an interval (alpha-cut for fuzzy values)."""
    if isinstance(value, Interval):
        return value
    return value.alpha_cut(alpha)
