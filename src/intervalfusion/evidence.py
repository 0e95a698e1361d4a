"""Mass functions over the frame {IS, NS} and Dempster's combination rule.

A :class:`MassFunction` distributes belief over the non-empty subsets of
the one frame :data:`FRAME` = (IS, NS): the "ideal" and the "negative
ideal" hypothesis. Subsets are encoded as bitmasks over it (element ``i``
is bit ``i``): ``0b01`` and ``0b10`` are the singletons, ``0b11`` is the
full frame. A mass function is therefore a triple ``(a, b, c)`` of the
masses of the first singleton, the second singleton and the full frame;
:meth:`MassFunction.from_triple` and :func:`part_triple` convert between
the two.

All arithmetic on mass functions is defined here once, on triples, and both
:class:`MassFunction` and the kernel of ``rank_alternatives`` call it:

* the sum policy (the tolerances below) keeps a triple that sums to 1
  within EXACT_SUM_TOLERANCE, divides one within RENORMALIZATION_TOLERANCE
  by its sum, and rejects the rest;
* :func:`discount` is Shafer discounting by a reliability ``w``;
* :func:`dempster` is the conjunctive, normalized rule in the closed form it
  has on two elements (Barnett 1981): the conflict coefficient is
  ``K = a1*b2 + b1*a2``, each focal set collects the products of the pairs
  whose intersection it is, and all masses are divided by ``1 - K``.
  ``K = 0`` means fully consistent sources; at ``K = 1`` the rule is
  undefined and :class:`TotalConflict` is raised.

Several sources combine by a left fold (``functools.reduce``) of the rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from typing import Iterable

from .errors import (
    EmptyEvidenceList,
    EmptyFocalSet,
    FrameMismatch,
    MassSumViolation,
    NegativeMass,
    TotalConflict,
)

#: Mass vectors whose sum deviates from 1 by more than this are rejected.
#: Smaller deviations (typical of published tables rounded to 4 decimals)
#: are renormalized by division.
RENORMALIZATION_TOLERANCE = 1e-6

#: Deviations at or below this are floating-point residue and kept as-is,
#: so that algebraically exact identities (vacuous neutrality, discount by
#: 1) stay bit-exact through construction.
EXACT_SUM_TOLERANCE = 1e-12

#: The normalizer 1 - K is numerically meaningless closer to zero than this.
TOTAL_CONFLICT_EPS = 1e-12

#: A discount complement may dip below zero by at most this much of
#: floating-point residue before it is an input error.
COMPLEMENT_EPS = 1e-9

#: The frame of discernment, in bit order: the ideal hypothesis first.
FRAME = ("IS", "NS")

#: Subset bitmasks: the first singleton, the second, the full frame.
FIRST_MASK, SECOND_MASK, FULL_MASK = 0b01, 0b10, 0b11

#: Masses of (first singleton, second singleton, full frame).
Triple = tuple[float, float, float]

_INF = math.inf


def finite_nonnegative_floats(a, b, c) -> bool:
    """Whether ``a``, ``b`` and ``c`` are all of type ``float``, finite and
    non-negative: masses that every per-mask check of :class:`MassFunction`
    accepts and that ``float()`` leaves as they are."""
    return (
        type(a) is type(b) is type(c) is float
        and 0.0 <= a < _INF
        and 0.0 <= b < _INF
        and 0.0 <= c < _INF
    )


def _divisor(values: Iterable[float]) -> float:
    """The sum policy: raise if the masses miss a unit sum by more than
    RENORMALIZATION_TOLERANCE; return their sum, to divide them by, if they
    miss it by more than EXACT_SUM_TOLERANCE; return 1.0 otherwise, so they
    are kept bit-exact."""
    total = math.fsum(values)
    if abs(total - 1.0) > RENORMALIZATION_TOLERANCE:
        raise MassSumViolation(f"masses sum to {total!r}, expected 1")
    return total if abs(total - 1.0) > EXACT_SUM_TOLERANCE else 1.0


def discount(p: float, q: float, w: float) -> Triple:
    """Shafer discounting of the singleton masses ``p`` and ``q`` by ``w``:
    both are scaled by ``w`` and the remainder goes to the full frame,
    (p, q, r) -> (w*p, w*q, 1 - w*p - w*q). A remainder below zero by at
    most COMPLEMENT_EPS is clamped to zero."""
    a = p * w
    b = q * w
    c = 1.0 - a - b
    if c < 0.0:
        if c < -COMPLEMENT_EPS:
            raise MassSumViolation(f"discounted masses exceed 1 ({a} + {b}); invalid input mass")
        c = 0.0
    total = _divisor((a, b, c))
    if total != 1.0:
        return a / total, b / total, c / total
    return a, b, c


def dempster(x: Triple, y: Triple) -> Triple:
    """Dempster's rule of two independent sources, summed in a fixed order:
    for each singleton its own product, then singleton times full frame,
    then full frame times singleton."""
    a1, b1, c1 = x
    a2, b2, c2 = y
    k = a1 * b2 + b1 * a2
    if k >= 1.0 - TOTAL_CONFLICT_EPS:
        raise TotalConflict(f"conflict coefficient is {k}; combination is undefined")
    norm = 1.0 - k
    a = (a1 * a2 + a1 * c2 + c1 * a2) / norm
    b = (b1 * b2 + b1 * c2 + c1 * b2) / norm
    c = c1 * c2 / norm
    total = _divisor((a, b, c))
    if total != 1.0:
        return a / total, b / total, c / total
    return a, b, c


@dataclass(frozen=True)
class MassFunction:
    """A basic probability assignment over :data:`FRAME`.

    Masses are keyed by subset bitmask. Invariants: every mass is finite and
    non-negative, the empty set carries none, and the total is 1 (after the
    renormalization policy above). Zero-mass subsets are dropped, so equality
    compares focal sets only.
    """

    masses: dict[int, float]

    def __post_init__(self) -> None:
        cleaned: dict[int, float] = {}
        for mask, value in self.masses.items():
            if not isinstance(mask, int) or isinstance(mask, bool) or not 0 <= mask <= FULL_MASK:
                raise FrameMismatch(f"subset mask {mask!r} does not fit frame {FRAME!r}")
            if mask == 0:
                raise EmptyFocalSet("the empty set cannot carry mass")
            v = float(value)
            if not math.isfinite(v) or v < 0.0:
                labels = {e for i, e in enumerate(FRAME) if mask >> i & 1}
                raise NegativeMass(
                    f"mass for {labels!r} must be finite and non-negative, got {value!r}"
                )
            if v != 0.0:
                cleaned[mask] = v
        total = _divisor(cleaned.values())
        if total != 1.0:
            cleaned = {mask: v / total for mask, v in cleaned.items()}
        object.__setattr__(self, "masses", cleaned)

    @classmethod
    def from_triple(cls, t: Iterable[float]) -> MassFunction:
        """The mass function with masses ``t`` on (first singleton, second
        singleton, full frame).

        Equal to ``cls({FIRST_MASK: a, SECOND_MASK: b, FULL_MASK: c})``
        in every outcome: the same masses, bit for bit and in the same key
        order, or the same error. Masses that pass
        :func:`finite_nonnegative_floats` skip the constructor's per-mask
        loop and meet only the sum policy; any other triple (ints, bools,
        NaN, infinities, negative masses) goes through the constructor.
        """
        a, b, c = t
        if not finite_nonnegative_floats(a, b, c):
            return cls({FIRST_MASK: a, SECOND_MASK: b, FULL_MASK: c})
        total = _divisor((a, b, c))
        if total != 1.0:
            # the constructor drops zeros before it divides; dividing first
            # drops the same ones, since total is within 1e-6 of 1
            a, b, c = a / total, b / total, c / total
        masses = {}
        if a:
            masses[FIRST_MASK] = a
        if b:
            masses[SECOND_MASK] = b
        if c:
            masses[FULL_MASK] = c
        m = object.__new__(cls)
        object.__setattr__(m, "masses", masses)
        return m

    @classmethod
    def vacuous(cls) -> MassFunction:
        """Total ignorance: all mass on the full frame."""
        return cls({FULL_MASK: 1.0})

    def mass_of_mask(self, mask: int) -> float:
        return self.masses.get(mask, 0.0)

    def combine(self, other: MassFunction) -> MassFunction:
        """Dempster's rule (:func:`dempster`) of two independent sources."""
        return MassFunction.from_triple(dempster(part_triple(self), part_triple(other)))


def part_triple(m: MassFunction) -> Triple:
    """Masses of ({first}, {second}, {first, second})."""
    get = m.masses.get
    return get(FIRST_MASK, 0.0), get(SECOND_MASK, 0.0), get(FULL_MASK, 0.0)


def combine_all(masses: Iterable[MassFunction]) -> MassFunction:
    """Left fold of pairwise combination; the rule is associative, so the
    fold order only affects floating-point residue."""
    items = list(masses)
    if not items:
        raise EmptyEvidenceList("need at least one mass function to combine")
    return reduce(MassFunction.combine, items)
