"""Mass functions over the frame {IS, NS} and Dempster's combination rule.

A :class:`MassFunction` distributes belief over the non-empty subsets of
the one frame :data:`FRAME` = (IS, NS): the "ideal" and the "negative
ideal" hypothesis. There are three such subsets, so a mass function is the
triple ``(a, b, c)`` of the masses of {IS}, {NS} and the full frame
Θ = {IS, NS}, in that order; :attr:`MassFunction.masses` holds it unchecked.

All arithmetic on mass functions is defined here, on triples, and the
kernel of ``rank_alternatives`` calls it:

* the sum policy (:func:`_settle`) keeps a triple that sums to 1 within
  EXACT_SUM_TOLERANCE, divides one within RENORMALIZATION_TOLERANCE by its
  sum, and rejects the rest;
* :func:`discount` is step 3's Shafer discounting of a row of ratings, each
  ``t`` the interval BPA ``(t, t)``: its left part by the weight's lower
  bound and its right part by the upper bound, into one flat tuple of masses;
* :func:`fold` folds sources left to right under the conjunctive, normalized
  rule in the closed form it has on two elements (Barnett 1981): the
  conflict coefficient is ``K = a1*b2 + b1*a2``, each focal set collects the
  products of the pairs whose intersection it is, and all masses are divided
  by ``1 - K``. ``K = 0`` means fully consistent sources; at ``K = 1`` the
  rule is undefined and :class:`TotalConflict` is raised, naming the step.
  Given the sources' reliabilities, it discounts each source as it reaches
  it, with :func:`discount`'s arithmetic written out a second time, so the
  kernel builds no row of discounted triples.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from itertools import repeat
from operator import length_hint

from .errors import MassSumViolation, TotalConflict
from .intervals import Value

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

#: The frame of discernment: the ideal hypothesis first.
FRAME = ("IS", "NS")

#: Masses of (first singleton, second singleton, full frame).
Triple = tuple[float, float, float]

_INF = math.inf

#: Fold steps whose conflict K reaches this raise TotalConflict.
_CONFLICT_LIMIT = 1.0 - TOTAL_CONFLICT_EPS

#: fold keeps a step whose plain sum is this close to 1 without _settle. The
#: plain sum ``a + b + c`` rounds twice, each time by at most half an ulp of a
#: value below 2, so it is within about 2.3e-16 of the exact sum. The exact
#: sum, and so its correctly rounded ``math.fsum``, is then within
#: EXACT_SUM_TOLERANCE of 1, and _settle would keep the masses as they are.
_PLAIN_SUM_TOLERANCE = EXACT_SUM_TOLERANCE - 1e-15


def _settle(a: float, b: float, c: float) -> Triple:
    """The sum policy on three non-negative finite masses: raise if they
    miss a unit sum by more than RENORMALIZATION_TOLERANCE; divide each by
    their sum if they miss it by more than EXACT_SUM_TOLERANCE; return them
    as they are otherwise, so they are kept bit-exact."""
    try:
        total = math.fsum((a, b, c))
    except OverflowError:  # finite masses whose sum is beyond float range
        total = _INF
    if abs(total - 1.0) > RENORMALIZATION_TOLERANCE:
        raise MassSumViolation(f"masses sum to {total!r}, expected 1")
    if abs(total - 1.0) > EXACT_SUM_TOLERANCE:
        return a / total, b / total, c / total
    return a, b, c


def discount(triples: Iterable[Triple], los: Iterable[float], his: Iterable[float]) -> tuple[float, ...]:
    """Shafer discounting of a row of ratings, each triple ``t`` the interval
    BPA ``(t, t)``: its left part by its lower bound in ``los``, its right
    part by its upper bound in ``his``. A part (p, q, r) discounted by the
    reliability ``w`` is (w*p, w*q, 1 - w*p - w*q); a remainder below zero is
    clamped to zero, and the clamped triple goes through _settle. The masses
    come back as one flat tuple in trace order: for each source, its left
    triple and then its right triple.

    Precondition: finite ``p, q >= 0`` and ``w >= 0``. Then a remainder
    ``c >= 0`` puts all three masses in [0, 1], each sum rounds by at most
    an ulp of 1, and the plain sum is within a few ulps of 1, far inside
    _settle's exact band: the triple is kept with no sum test. On settled
    triples only a weight above 1 can make _settle raise; the error is then
    the first failing source's, its left part before its right part."""
    out = []
    for (p, q, _), lo, hi in zip(triples, los, his):
        a = p * lo
        b = q * lo
        c = 1.0 - a - b
        if c < 0.0:
            a, b, c = _settle(a, b, 0.0)
        d = p * hi
        e = q * hi
        f = 1.0 - d - e
        if f < 0.0:
            d, e, f = _settle(d, e, 0.0)
        out += a, b, c, d, e, f
    return tuple(out)


def fold(triples: Iterable[Triple], weights: Iterable[float] | None = None) -> Triple:
    """Dempster's rule of independent sources, folded left to right. Each
    step is summed in a fixed order: for each singleton its own product,
    then singleton times full frame, then full frame times singleton. A step
    that _settle would keep as it is is kept inline; only the others go
    through it. Near total conflict, where the rounding of ``1 - K`` leaves
    a sum the policy rejects, it raises TotalConflict, whose ``step`` is the
    index of the source whose step raised, or None if ``triples`` has no
    length. ``triples`` must not be empty.

    With ``weights``, each source is first discounted by its reliability,
    with :func:`discount`'s arithmetic, just before its step: the masses of
    folding the left parts of ``discount(triples, weights, weights)``, with
    no row between the two. A step's error comes before the discount of a
    later source."""
    sources = iter(triples)
    a1 = None
    for (a2, b2, c2), w in zip(sources, repeat(None) if weights is None else weights):
        if w is not None:
            a2 = a2 * w
            b2 = b2 * w
            c2 = 1.0 - a2 - b2
            if c2 < 0.0:
                a2, b2, c2 = _settle(a2, b2, 0.0)
        if a1 is None:
            a1, b1, c1 = a2, b2, c2
            continue
        k = a1 * b2 + b1 * a2
        if k < _CONFLICT_LIMIT:
            norm = 1.0 - k
            a = (a1 * a2 + a1 * c2 + c1 * a2) / norm
            b = (b1 * b2 + b1 * c2 + c1 * b2) / norm
            c = c1 * c2 / norm
            if -_PLAIN_SUM_TOLERANCE <= a + b + c - 1.0 <= _PLAIN_SUM_TOLERANCE:
                a1, b1, c1 = a, b, c
                continue
            try:
                a1, b1, c1 = _settle(a, b, c)
                continue
            except MassSumViolation:
                pass
        exc = TotalConflict(f"conflict coefficient is {k}; combination is undefined")
        exc.step = len(triples) - length_hint(sources) - 1 if hasattr(triples, "__len__") else None
        raise exc
    return a1, b1, c1


class MassFunction(Value):
    """A basic probability assignment over :data:`FRAME`.

    ``masses`` is the triple of the masses of {IS}, {NS} and the full frame:
    finite, non-negative floats with +0.0 for a zero and a sum the policy
    above keeps, wherever the package makes one. The constructor stores it
    unchecked; the loader checks each rating.
    """

    __slots__ = _fields = ("masses",)

    def __init__(self, masses: Triple) -> None:
        self._init(masses)
        self.__post_init__()  # looked up on the class: a tracer may wrap it

    def __post_init__(self) -> None:
        """Does nothing; ``benchmarks/spans.py`` counts the builds here."""

    def mass_of_mask(self, mask: int) -> float:
        """The mass of the subset with bitmask ``mask`` (1 for {IS}, 2 for
        {NS}, 3 for the full frame), as ``benchmarks/run.py`` reads cells."""
        return self.masses[mask - 1] if 1 <= mask <= 3 else 0.0

    def combine(self, other: MassFunction) -> MassFunction:
        """Dempster's rule (:func:`fold`) of two independent sources."""
        return MassFunction(fold((self.masses, other.masses)))

