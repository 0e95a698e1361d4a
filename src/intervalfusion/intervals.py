"""Closed real intervals, and :class:`Value`, the base of the value types.

A weight is a validated pair ``[lo, hi]`` and nothing more: the one
operation on weights, normalizing a group by its largest endpoint, is
endpoint-wise division in ``pipeline.normalize_weight_group``, a stage of
the rank.
"""

from __future__ import annotations

import math
import sys

from .errors import InvalidInterval

#: Endpoints ordered lo > hi by at most this much are collapsed to [lo, lo];
#: larger inversions are rejected.
ENDPOINT_TOLERANCE = 1e-12


def to_float(x) -> float:
    """``float(x)`` of an int or float; inf for an int beyond float range and nan
    for any other value, a bool included, which finiteness checks reject."""
    try:
        return float(x) if isinstance(x, (int, float)) and not isinstance(x, bool) else math.nan
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


class Value:
    """An immutable value whose fields are its ``_fields``, the constructor's
    parameters in order. It pickles, copies, compares and hashes as the call
    that builds it. Its repr, as ``Interval(lo=0.2, hi=0.35)``, skips ``_``
    fields."""

    __slots__ = ()

    def _init(self, *values) -> None:
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def __reduce__(self):
        return type(self), tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        return self.__reduce__() == other.__reduce__() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self.__reduce__())

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields if name[0] != "_")
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__


class Interval(Value):
    """A closed real interval ``[lo, hi]`` with finite ``lo <= hi``."""

    __slots__ = _fields = ("lo", "hi")

    def __init__(self, lo: float, hi: float) -> None:
        a, b = to_float(lo), to_float(hi)
        if not (math.isfinite(a) and math.isfinite(b)):
            raise InvalidInterval(f"endpoints must be finite numbers, got [{describe(lo)}, {describe(hi)}]")
        if a > b:
            if a - b <= ENDPOINT_TOLERANCE:
                b = a
            else:
                raise InvalidInterval(f"lower endpoint {a} exceeds upper endpoint {b}")
        self._init(a, b)
