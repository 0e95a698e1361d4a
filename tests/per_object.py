"""The ranking pipeline folded one ``MassFunction`` at a time.

This is the reference that property suite 9 and the JSON writer's tests
compare the kernel of ``rank_alternatives`` with, bit for bit. The kernel
discounts each source inside the fold over a row (``fold(triples,
weights)``); this reference discounts each rating, and each decision
maker's fused pair, as one interval BPA on its own with
``evidence.discount`` and then folds the results with the unweighted
``evidence.fold``. It builds on ``MassFunction`` and those two alone, so the
bets it gives do not run the kernel's inline discount. The trace's
``cells`` come from ``evidence.discount`` itself, one row at a time, so for
that table the comparison checks the walk over the rows, not the
arithmetic; ``TestRowKernelParity`` in ``test_evidence.py`` pins that.
"""

from intervalfusion import POOLED, MassFunction, normalize_weight_group
from intervalfusion.errors import IntervalFusionError
from intervalfusion.evidence import discount, fold


def discounted(left, right, lo, hi):
    """The (left, right) pair of mass functions: ``left`` discounted by the
    reliability ``lo`` and ``right`` by ``hi``."""
    masses = discount((left.masses,), (right.masses,), (lo,), (hi,))
    return MassFunction(masses[:3]), MassFunction(masses[3:])


def fused(ms):
    """Dempster's rule over the mass functions ``ms``, folded left to right."""
    return MassFunction(fold(m.masses for m in ms))


def failed_step(pairs):
    """The index of the (left, right) pair at whose step fusing ``pairs``
    raises: the left parts are combined one at a time, then the right parts.
    None if neither side raises."""
    for side in ([left for left, _ in pairs], [right for _, right in pairs]):
        acc = side[0]
        for i, m in enumerate(side[1:], 1):
            try:
                acc = acc.combine(m)
            except IntervalFusionError:
                return i
    return None


def per_object_rank(problem, normalization):
    """The pipeline on ``problem``, step by step in the kernel's order, each
    interval BPA a (left, right) pair of mass functions. Returns the bets and
    the four trace tables, named and laid out as a report's: each interval
    BPA as its (left, right) pair of triples. An error is raised with the
    place that ``rank_alternatives`` documents."""

    def located(exc, where):
        return type(exc)(f"{where}: {exc}")

    n_crit = len(problem.criteria)
    if normalization == POOLED:
        flat = normalize_weight_group([w for ws in problem.criterion_weights for w in ws])
        crit_weights = [flat[d * n_crit : (d + 1) * n_crit] for d in range(len(problem.decision_makers))]
    else:
        crit_weights = []
        for dm, ws in zip(problem.decision_makers, problem.criterion_weights):
            try:
                crit_weights.append(normalize_weight_group(ws))
            except IntervalFusionError as exc:
                raise located(exc, f"decision maker {dm!r} criterion weights") from exc
    dm_weights = normalize_weight_group(problem.dm_weights)

    cell_bpas, dm_fused = [], []
    for d, dm in enumerate(problem.decision_makers):
        dm_cells, dm_rows = [], []
        for a, alt in enumerate(problem.alternatives):
            cells = [discounted(m, m, w.lo, w.hi) for m, w in zip(problem.ratings[d][a], crit_weights[d])]
            try:
                dm_rows.append((fused(left for left, _ in cells), fused(right for _, right in cells)))
            except IntervalFusionError as exc:
                crit = problem.criteria[failed_step(cells)]
                raise located(exc, f"decision maker {dm!r}, alternative {alt!r}, criterion {crit!r}") from exc
            dm_cells.append(tuple(cells))
        cell_bpas.append(tuple(dm_cells))
        dm_fused.append(tuple(dm_rows))

    final_bpas, collapsed = [], []
    for a, alt in enumerate(problem.alternatives):
        parts = [discounted(*dm_fused[d][a], w.lo, w.hi) for d, w in enumerate(dm_weights)]
        try:
            final_bpas.append((fused(left for left, _ in parts), fused(right for _, right in parts)))
            collapsed.append(final_bpas[-1][0].combine(final_bpas[-1][1]))
        except IntervalFusionError as exc:
            step = failed_step(parts)
            where = "collapse" if step is None else f"decision maker {problem.decision_makers[step]!r}"
            raise located(exc, f"alternative {alt!r}, {where}") from exc

    def pair(ib):
        return ib[0].masses, ib[1].masses

    return {
        "bets": tuple(m.masses[0] + m.masses[2] / 2.0 for m in collapsed),
        "cells": tuple(tuple(tuple(map(pair, row)) for row in dm) for dm in cell_bpas),
        "fused_per_dm": tuple(tuple(map(pair, dm)) for dm in dm_fused),
        "final": tuple(map(pair, final_bpas)),
        "collapsed": tuple(m.masses for m in collapsed),
    }
