"""Closed real intervals.

A weight is a validated pair ``[lo, hi]`` and nothing more: the one
operation on weights, normalizing a group by its largest endpoint, is
endpoint-wise division in ``pipeline.normalize_weight_group``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .errors import InvalidInterval

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


def describe(x) -> str:
    """``repr(x)``, but an int too long for ``repr`` under the interpreter's
    digit limit (``sys.get_int_max_str_digits``) is named by its bit length,
    so that a message about it can be built."""
    limit = getattr(sys, "get_int_max_str_digits", int)()  # int() is 0: no limit
    if isinstance(x, int) and limit and abs(x) >= 10**limit:
        return f"<{'negative ' if x < 0 else ''}int of {x.bit_length()} bits>"
    return repr(x)


@dataclass(frozen=True)
class Interval:
    """A closed real interval ``[lo, hi]`` with finite ``lo <= hi``."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        lo = to_float(self.lo)
        hi = to_float(self.hi)
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise InvalidInterval(
                f"endpoints must be finite, got [{describe(self.lo)}, {describe(self.hi)}]"
            )
        if lo > hi:
            if lo - hi <= ENDPOINT_TOLERANCE:
                hi = lo
            else:
                raise InvalidInterval(f"lower endpoint {lo} exceeds upper endpoint {hi}")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
