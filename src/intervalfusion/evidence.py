"""Mass functions over a two-element frame and Dempster's combination rule.

A :class:`MassFunction` distributes belief over the non-empty subsets of a
:class:`Frame` of two mutually exclusive hypotheses. Subsets are encoded as
bitmasks over the ordered frame (element ``i`` is bit ``i``): ``0b01`` and
``0b10`` are the singletons, ``0b11`` is the full frame. That keeps
intersections exact and makes the combination rule a plain double loop over
focal sets.

Combination follows the conjunctive, normalized rule: the combined mass of
``A`` is the sum of ``m1(X) * m2(Y)`` over all pairs with ``X & Y == A``,
divided by ``1 - K`` where the conflict coefficient ``K`` collects the mass
of disjoint pairs. ``K = 0`` means fully consistent sources; at ``K = 1``
the rule is undefined and :class:`TotalConflict` is raised.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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


@dataclass(frozen=True)
class Frame:
    """Ordered frame of discernment: two unique hypothesis labels."""

    elements: tuple[str, ...]

    def __post_init__(self) -> None:
        elements = tuple(self.elements)
        if len(elements) != 2:
            raise ValueError(f"frame must have exactly 2 elements, got {len(elements)}")
        if any(not isinstance(e, str) or not e for e in elements):
            raise ValueError("frame elements must be non-empty strings")
        if len(set(elements)) != len(elements):
            raise ValueError(f"frame elements must be unique, got {elements!r}")
        object.__setattr__(self, "elements", elements)

    @property
    def full_mask(self) -> int:
        return 0b11

    def labels_of(self, mask: int) -> tuple[str, ...]:
        """Element labels of a subset bitmask, in frame order."""
        return tuple(e for i, e in enumerate(self.elements) if mask >> i & 1)


@dataclass(frozen=True)
class MassFunction:
    """A basic probability assignment over a frame.

    Masses are keyed by subset bitmask. Invariants: every mass is finite and
    non-negative, the empty set carries none, and the total is 1 (after the
    renormalization policy above). Zero-mass subsets are dropped, so equality
    compares focal sets only.
    """

    frame: Frame
    masses: dict[int, float]

    def __post_init__(self) -> None:
        full = self.frame.full_mask
        cleaned: dict[int, float] = {}
        for mask, value in self.masses.items():
            if not isinstance(mask, int) or isinstance(mask, bool) or not 0 <= mask <= full:
                raise FrameMismatch(f"subset mask {mask!r} does not fit frame {self.frame.elements!r}")
            if mask == 0:
                raise EmptyFocalSet("the empty set cannot carry mass")
            v = float(value)
            if not math.isfinite(v) or v < 0.0:
                raise NegativeMass(
                    f"mass for {set(self.frame.labels_of(mask))!r} must be finite and "
                    f"non-negative, got {value!r}"
                )
            if v != 0.0:
                cleaned[mask] = v
        total = math.fsum(cleaned.values())
        if abs(total - 1.0) > RENORMALIZATION_TOLERANCE:
            raise MassSumViolation(f"masses sum to {total!r}, expected 1")
        if abs(total - 1.0) > EXACT_SUM_TOLERANCE:
            cleaned = {mask: v / total for mask, v in cleaned.items()}
        object.__setattr__(self, "masses", cleaned)

    @classmethod
    def vacuous(cls, frame: Frame) -> MassFunction:
        """Total ignorance: all mass on the full frame."""
        return cls(frame, {frame.full_mask: 1.0})

    def mass_of_mask(self, mask: int) -> float:
        return self.masses.get(mask, 0.0)

    @property
    def is_vacuous(self) -> bool:
        return set(self.masses) == {self.frame.full_mask}

    def combine(self, other: MassFunction) -> MassFunction:
        """Conjunctive, normalized combination of two independent sources."""
        if self.frame != other.frame:
            raise FrameMismatch(
                f"frames differ: {self.frame.elements!r} vs {other.frame.elements!r}"
            )
        combined: dict[int, float] = {}
        k = 0.0
        for x, mx in self.masses.items():
            for y, my in other.masses.items():
                inter = x & y
                product = mx * my
                if inter:
                    combined[inter] = combined.get(inter, 0.0) + product
                else:
                    k += product
        if k >= 1.0 - TOTAL_CONFLICT_EPS:
            raise TotalConflict(f"conflict coefficient is {k}; combination is undefined")
        norm = 1.0 - k
        return MassFunction(self.frame, {mask: v / norm for mask, v in combined.items()})


def combine_all(masses: Iterable[MassFunction]) -> MassFunction:
    """Left fold of pairwise combination; the rule is associative, so the
    fold order only affects floating-point residue."""
    items = list(masses)
    if not items:
        raise EmptyEvidenceList("need at least one mass function to combine")
    result = items[0]
    for m in items[1:]:
        result = result.combine(m)
    return result
