"""The ranking pipeline on plain triples, with the suite's own arithmetic.

This is the reference that property suite 9 and the JSON writer's tests
compare the kernel of ``rank_alternatives`` with, bit for bit. It reads the
problem's ``(m_IS, m_NS, m_Θ)`` triples (``problem._triples``) and weight
intervals, and runs each rule of the method written out here once, on
floats: the sum policy (:func:`sum_policy`), the scalar Shafer discount
(:func:`reference_discount`), the two-source Dempster step in the kernel's
summation order (:func:`reference_dempster`) and the normalization of a
weight group by its largest endpoint (:func:`normalized`). It takes from the
package only its error classes and the name ``POOLED``, so a fault in the
package's discount, fold, sum policy or normalization shows as a difference
in bits; ``tests/test_properties.py`` guards its imports. The kernel discounts each source inside the fold over a
row; this reference discounts each rating, and each decision maker's fused
pair, as one interval BPA on its own and then folds the results. It reads
each normalized weight endpoint plus 0.0, as ``pipeline._endpoints`` does:
a -0.0 endpoint then discounts to +0.0 masses.
"""

import math

from intervalfusion import POOLED
from intervalfusion.errors import AllZeroWeights, MassSumViolation, TotalConflict


def sum_policy(a, b, c):
    """The sum policy on three non-negative masses: reject a sum more than
    1e-6 from 1 (by ``math.fsum``, a sum beyond float range reading as
    inf), divide each mass by one more than 1e-12 from 1, else keep the
    masses as they are."""
    try:
        total = math.fsum((a, b, c))
    except OverflowError:  # finite masses whose sum is beyond float range
        total = math.inf
    if abs(total - 1.0) > 1e-6:
        raise MassSumViolation(f"masses sum to {total!r}, expected 1")
    if abs(total - 1.0) > 1e-12:
        return a / total, b / total, c / total
    return a, b, c


def reference_discount(p, q, w):
    """Shafer discounting of the singleton masses ``p`` and ``q`` by ``w``:
    both are scaled by ``w`` and the remainder goes to the full frame,
    (p, q, r) -> (w*p, w*q, 1 - w*p - w*q). A remainder below zero is
    clamped to zero."""
    a = p * w
    b = q * w
    c = 1.0 - a - b
    if c < 0.0:
        c = 0.0
    return sum_policy(a, b, c)


def reference_dempster(x, y):
    """Dempster's rule of two independent sources, summed in a fixed order:
    for each singleton its own product, then singleton times full frame,
    then full frame times singleton. Refused at conflict K >= 1 - 1e-12,
    and near it, where the rounding of ``1 - K`` leaves a sum the policy
    rejects: both raise TotalConflict."""
    a1, b1, c1 = x
    a2, b2, c2 = y
    k = a1 * b2 + b1 * a2
    if k < 1.0 - 1e-12:
        norm = 1.0 - k
        a = (a1 * a2 + a1 * c2 + c1 * a2) / norm
        b = (b1 * b2 + b1 * c2 + c1 * b2) / norm
        c = c1 * c2 / norm
        try:
            return sum_policy(a, b, c)
        except MassSumViolation:
            pass
    raise TotalConflict(f"conflict coefficient is {k}; combination is undefined")


def normalized(group):
    """The (lo, hi) endpoints of the weight intervals ``group``, each
    divided by the largest endpoint of the group."""
    top = max(w.hi for w in group)
    if top <= 0.0:
        raise AllZeroWeights("all weights in the group are zero")
    return [(w.lo / top, w.hi / top) for w in group]


def discounted(left, right, lo, hi):
    """The (left, right) pair of triples: ``left`` discounted by the
    reliability ``lo`` and ``right`` by ``hi``, each endpoint read with -0.0
    as +0.0, as the kernel reads them."""
    return reference_discount(*left[:2], lo + 0.0), reference_discount(*right[:2], hi + 0.0)


def fused(pairs):
    """Dempster's rule over the (left, right) pairs ``pairs``: the left parts
    folded left to right, then the right parts. An error carries in ``step``
    the index of the pair whose step raised."""
    out = []
    for side in zip(*pairs):
        acc = side[0]
        for step, t in enumerate(side[1:], 1):
            try:
                acc = reference_dempster(acc, t)
            except TotalConflict as exc:
                exc.step = step
                raise
        out.append(acc)
    return tuple(out)


def per_object_rank(problem, normalization):
    """The pipeline on ``problem``, step by step in the kernel's order, each
    interval BPA a (left, right) pair of triples. Returns the bets and the
    four trace tables, named and laid out as a report's. An error is raised
    with the place that ``rank_alternatives`` documents."""

    def located(exc, where):
        return type(exc)(f"{where}: {exc}")

    n_crit = len(problem.criteria)
    if normalization == POOLED:
        flat = normalized([w for ws in problem.criterion_weights for w in ws])
        crit_weights = [flat[d * n_crit : (d + 1) * n_crit] for d in range(len(problem.decision_makers))]
    else:
        crit_weights = []
        for dm, ws in zip(problem.decision_makers, problem.criterion_weights):
            try:
                crit_weights.append(normalized(ws))
            except AllZeroWeights as exc:
                raise located(exc, f"decision maker {dm!r} criterion weights") from exc
    dm_weights = normalized(problem.dm_weights)

    cells, dm_fused = [], []
    for d, dm in enumerate(problem.decision_makers):
        dm_cells, dm_rows = [], []
        for alt, row in zip(problem.alternatives, problem._triples[d]):
            pairs = tuple(discounted(t, t, lo, hi) for t, (lo, hi) in zip(row, crit_weights[d]))
            try:
                dm_rows.append(fused(pairs))
            except TotalConflict as exc:
                where = f"decision maker {dm!r}, alternative {alt!r}, criterion {problem.criteria[exc.step]!r}"
                raise located(exc, where) from exc
            dm_cells.append(pairs)
        cells.append(tuple(dm_cells))
        dm_fused.append(tuple(dm_rows))

    final, collapsed = [], []
    for a, alt in enumerate(problem.alternatives):
        parts = [discounted(*dm_fused[d][a], lo, hi) for d, (lo, hi) in enumerate(dm_weights)]
        try:
            final.append(fused(parts))
        except TotalConflict as exc:
            raise located(exc, f"alternative {alt!r}, decision maker {problem.decision_makers[exc.step]!r}") from exc
        try:
            collapsed.append(reference_dempster(*final[-1]))
        except TotalConflict as exc:
            raise located(exc, f"alternative {alt!r}, collapse") from exc

    return {
        "bets": tuple(m[0] + m[2] / 2.0 for m in collapsed),
        "cells": tuple(cells),
        "fused_per_dm": tuple(dm_fused),
        "final": tuple(final),
        "collapsed": tuple(collapsed),
    }
