"""Mass functions over the frame {IS, NS} and Dempster's combination rule.

A :class:`MassFunction` distributes belief over the non-empty subsets of
the one frame :data:`FRAME` = (IS, NS): the "ideal" and the "negative
ideal" hypothesis. There are three such subsets, so a mass function is the
triple ``(a, b, c)`` of the masses of {IS}, {NS} and the full frame
Θ = {IS, NS}, in that order; :attr:`MassFunction.masses` holds it.

All arithmetic on mass functions is defined here once, on triples, and both
:class:`MassFunction` and the kernel of ``rank_alternatives`` call it:

* the sum policy (the tolerances below) keeps a triple that sums to 1
  within EXACT_SUM_TOLERANCE, divides one within RENORMALIZATION_TOLERANCE
  by its sum, and rejects the rest;
* :func:`discount` is Shafer discounting of a row of triples by their
  reliabilities;
* :func:`fold` folds sources left to right under the conjunctive, normalized
  rule in the closed form it has on two elements (Barnett 1981): the
  conflict coefficient is ``K = a1*b2 + b1*a2``, each focal set collects the
  products of the pairs whose intersection it is, and all masses are divided
  by ``1 - K``. ``K = 0`` means fully consistent sources; at ``K = 1`` the
  rule is undefined and :class:`TotalConflict` is raised.
"""

from __future__ import annotations

import math
from collections.abc import Iterable

from .errors import EmptyEvidenceList, MassSumViolation, NegativeMass, TotalConflict
from .intervals import Value, describe, to_float

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

#: The frame of discernment: the ideal hypothesis first.
FRAME = ("IS", "NS")

#: Masses of (first singleton, second singleton, full frame).
Triple = tuple[float, float, float]

#: The three focal sets as diagnostics name them, in FRAME order.
_FOCAL_SETS = tuple("{" + ", ".join(map(repr, s)) + "}" for s in (FRAME[:1], FRAME[1:], FRAME))

_INF = math.inf

#: A plain sum this close to 1 is bound to pass as exact (see _settle).
_PLAIN_SUM_TOLERANCE = EXACT_SUM_TOLERANCE - 1e-15


def _mass(value, focal_set: str) -> float:
    """``float(value)`` if it is finite and non-negative, with -0.0 read as
    +0.0; else NegativeMass naming ``focal_set``."""
    v = to_float(value) + 0.0
    if 0.0 <= v < _INF:
        return v
    raise NegativeMass(f"mass for {focal_set} must be finite and non-negative, got {describe(value)}")


def _settle(a: float, b: float, c: float) -> Triple:
    """The sum policy on three non-negative finite masses: raise if they
    miss a unit sum by more than RENORMALIZATION_TOLERANCE; divide each by
    their sum if they miss it by more than EXACT_SUM_TOLERANCE; return them
    as they are otherwise, so they are kept bit-exact.

    The plain sum ``a + b + c`` rounds twice, each time by at most half an
    ulp of a value below 2, so it is within about 2.3e-16 of the exact sum.
    When it lies within 1 +- (EXACT_SUM_TOLERANCE - 1e-15), the exact sum,
    and so its correctly rounded ``math.fsum``, lies within
    EXACT_SUM_TOLERANCE of 1, and they are kept without ``fsum``."""
    if abs(a + b + c - 1.0) <= _PLAIN_SUM_TOLERANCE:
        return a, b, c
    try:
        total = math.fsum((a, b, c))
    except OverflowError:  # finite masses whose sum is beyond float range
        total = _INF
    if abs(total - 1.0) > RENORMALIZATION_TOLERANCE:
        raise MassSumViolation(f"masses sum to {total!r}, expected 1")
    if abs(total - 1.0) > EXACT_SUM_TOLERANCE:
        return a / total, b / total, c / total
    return a, b, c


def discount(triples: Iterable[Triple], weights: Iterable[float]) -> list[Triple]:
    """Shafer discounting of each triple by its reliability ``w``: both
    singleton masses are scaled by ``w`` and the remainder goes to the full
    frame, (p, q, r) -> (w*p, w*q, 1 - w*p - w*q). A remainder below zero by
    at most COMPLEMENT_EPS is clamped to zero. A triple that _settle would
    keep as it is is kept inline; only the others go through it."""
    out = []
    for (p, q, _), w in zip(triples, weights):
        a = p * w
        b = q * w
        c = 1.0 - a - b
        if c >= 0.0 and abs(a + b + c - 1.0) <= _PLAIN_SUM_TOLERANCE:
            out.append((a, b, c))
            continue
        if c < 0.0:
            if c < -COMPLEMENT_EPS:
                raise MassSumViolation(f"discounted masses exceed 1 ({a} + {b}); invalid input mass")
            c = 0.0
        out.append(_settle(a, b, c))
    return out


def fold(triples: Iterable[Triple]) -> Triple:
    """Dempster's rule of independent sources, folded left to right. Each
    step is summed in a fixed order: for each singleton its own product,
    then singleton times full frame, then full frame times singleton. A step
    that _settle would keep as it is is kept inline; only the others go
    through it. Near total conflict, where the rounding of ``1 - K`` leaves
    a sum the policy rejects, it raises TotalConflict; on no sources,
    EmptyEvidenceList."""
    it = iter(triples)
    for a1, b1, c1 in it:
        break
    else:
        raise EmptyEvidenceList("need at least one mass function to combine")
    for a2, b2, c2 in it:
        k = a1 * b2 + b1 * a2
        if k < 1.0 - TOTAL_CONFLICT_EPS:
            norm = 1.0 - k
            a = (a1 * a2 + a1 * c2 + c1 * a2) / norm
            b = (b1 * b2 + b1 * c2 + c1 * b2) / norm
            c = c1 * c2 / norm
            if abs(a + b + c - 1.0) <= _PLAIN_SUM_TOLERANCE:
                a1, b1, c1 = a, b, c
                continue
            try:
                a1, b1, c1 = _settle(a, b, c)
                continue
            except MassSumViolation:
                pass
        raise TotalConflict(f"conflict coefficient is {k}; combination is undefined")
    return a1, b1, c1


class MassFunction(Value):
    """A basic probability assignment over :data:`FRAME`.

    ``masses`` is the triple of the masses of {IS}, {NS} and the full frame.
    Invariants: every mass is a finite, non-negative float, a zero mass is
    +0.0, and the total is 1 (after the renormalization policy above).
    Direct construction checks them; the loader checks each rating itself and
    builds its cell without ``__post_init__`` (``loading._parse_row``).
    """

    __slots__ = ("masses",)

    def __init__(self, masses: Triple) -> None:
        self._init(masses)
        self.__post_init__()  # looked up on the class: a tracer may wrap it

    def __post_init__(self) -> None:
        m = self.masses
        try:
            x, y, z = m
        except (TypeError, ValueError):  # not an iterable of three
            got = f"{len(m)} values" if isinstance(m, (tuple, list)) else f"a {type(m).__name__}"
            raise NegativeMass(f"masses must be three numbers, got {got}") from None
        settled = _settle(_mass(x, _FOCAL_SETS[0]), _mass(y, _FOCAL_SETS[1]), _mass(z, _FOCAL_SETS[2]))
        object.__setattr__(self, "masses", settled)

    @classmethod
    def vacuous(cls) -> MassFunction:
        """Total ignorance: all mass on the full frame."""
        return cls((0.0, 0.0, 1.0))

    def mass_of_mask(self, mask: int) -> float:
        """The mass of the subset with bitmask ``mask`` (1 for {IS}, 2 for
        {NS}, 3 for the full frame), as ``benchmarks/run.py`` reads cells."""
        return self.masses[mask - 1] if 1 <= mask <= 3 else 0.0

    def combine(self, other: MassFunction) -> MassFunction:
        """Dempster's rule (:func:`fold`) of two independent sources."""
        return MassFunction(fold((self.masses, other.masses)))

