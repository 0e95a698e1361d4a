"""Closed real intervals.

The pipeline needs one operation on weights: endpoint-wise division by a
positive real, which normalizes a weight group by its largest endpoint and
cannot invert the endpoints of a valid interval.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DivisionByZero, InvalidInterval

#: Endpoints ordered lo > hi by at most this much are collapsed to [lo, lo];
#: larger inversions are rejected.
ENDPOINT_TOLERANCE = 1e-12


def to_float(x) -> float:
    """``float(x)``, or inf for an int beyond float range, which finiteness
    checks then reject instead of leaking OverflowError."""
    try:
        return float(x)
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class Interval:
    """A closed real interval ``[lo, hi]`` with finite ``lo <= hi``."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        lo = to_float(self.lo)
        hi = to_float(self.hi)
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise InvalidInterval(f"endpoints must be finite, got [{self.lo!r}, {self.hi!r}]")
        if lo > hi:
            if lo - hi <= ENDPOINT_TOLERANCE:
                hi = lo
            else:
                raise InvalidInterval(f"lower endpoint {lo} exceeds upper endpoint {hi}")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    def __truediv__(self, k: float | int) -> Interval:
        """``[lo/k, hi/k]`` for a strictly positive real ``k``."""
        if isinstance(k, bool) or not isinstance(k, (int, float)):
            return NotImplemented
        if k <= 0.0:
            raise DivisionByZero(f"divisor must be strictly positive, got {k}")
        return Interval(self.lo / k, self.hi / k)
