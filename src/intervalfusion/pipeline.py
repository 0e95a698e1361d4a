"""Interval-weighted evidence fusion and ranking.

The five-step method implemented here:

1. ingest classical BPAs rating each alternative against each criterion
   (generation of those BPAs from raw performance data is out of scope);
2. normalize criterion weights by the largest endpoint of the weight group
   and discount each rating into an interval BPA — a pair of classical BPAs
   built from the weight's lower and upper bound;
3. fuse the interval BPAs across criteria (left parts together, right parts
   together), then discount each decision maker's fused result by the
   normalized decision-maker weight and fuse across decision makers;
4. collapse each alternative's final interval BPA by combining its left and
   right part into one classical BPA;
5. rank alternatives by pignistic belief in the ideal hypothesis.

Every rating lives on the one frame ``evidence.FRAME`` = (IS, NS), whose
first element is the "ideal" hypothesis and whose second is the "negative
ideal" one; mass on the full frame is uncommitted belief. Rating triples are
always ordered (first singleton, second singleton, full frame).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, reduce
from typing import Iterable, Sequence

from .errors import (
    AllZeroWeights,
    EmptyEvidenceList,
    IntervalFusionError,
    InvalidWeight,
    ValidationError,
)
from .evidence import MassFunction, Triple, combine_all, dempster, discount
from .intervals import Interval

#: Criterion weights pooled across all decision makers form one
#: normalization group (the default), or each decision maker's weights
#: normalize within their own group.
POOLED = "pooled"
PER_DM = "per-dm"


@dataclass(frozen=True)
class IntervalBPA:
    """An interval-valued belief assignment, stored as its two bounding
    classical BPAs.

    ``left`` is built from the lower weight bound, ``right`` from the upper.
    Freshly discounted pairs satisfy ``left(singleton) <= right(singleton)``;
    fusion does not preserve that ordering, so it is not a type invariant.
    """

    left: MassFunction
    right: MassFunction


def bet_ideal(m: MassFunction) -> float:
    """Pignistic belief in the first frame element: m({first}) + m(full)/2."""
    first, _, full = m.masses
    return first + full / 2.0


def normalize_weight_group(weights: Iterable[Interval]) -> list[Interval]:
    """Divide every interval in the group by the largest endpoint found in
    the whole group, so all normalized upper bounds are <= 1."""
    group = list(weights)
    if not group:
        raise AllZeroWeights("cannot normalize an empty weight group")
    for w in group:
        if w.lo < 0.0:
            raise InvalidWeight(f"weights must be non-negative, got [{w.lo}, {w.hi}]")
    a_max = max(w.hi for w in group)
    if a_max <= 0.0:
        raise AllZeroWeights("all weights in the group are zero")
    return [Interval(w.lo / a_max, w.hi / a_max) for w in group]


def _check_weight(w: Interval) -> None:
    if w.lo < 0.0 or w.hi > 1.0:
        raise InvalidWeight(f"discount weight must lie within [0, 1], got [{w.lo}, {w.hi}]")


def _discount_part(m: MassFunction, w: float) -> MassFunction:
    first, second, _ = m.masses
    return MassFunction(discount(first, second, w))


def discount_to_interval_bpa(m: MassFunction, w: Interval) -> IntervalBPA:
    """Discount a classical BPA by an interval weight: the left part uses the
    lower bound, the right part the upper bound."""
    _check_weight(w)
    return IntervalBPA(_discount_part(m, w.lo), _discount_part(m, w.hi))


def discount_interval_bpa(ib: IntervalBPA, w: Interval) -> IntervalBPA:
    """Discount an existing interval BPA: left part by the lower bound,
    right part by the upper bound."""
    _check_weight(w)
    return IntervalBPA(_discount_part(ib.left, w.lo), _discount_part(ib.right, w.hi))


def fuse_interval_bpas(ibs: Iterable[IntervalBPA]) -> IntervalBPA:
    """Fuse interval BPAs from several sources: all left parts combine into
    the new left part, all right parts into the new right part."""
    items = list(ibs)
    if not items:
        raise EmptyEvidenceList("need at least one interval BPA to fuse")
    return IntervalBPA(
        combine_all(ib.left for ib in items),
        combine_all(ib.right for ib in items),
    )


def collapse_interval_bpa(ib: IntervalBPA) -> MassFunction:
    """Combine the left and right part into a single classical BPA."""
    return ib.left.combine(ib.right)


def _unique_labels(labels: Sequence[str], what: str) -> None:
    if not labels:
        raise ValidationError(f"{what} must not be empty")
    if any(not isinstance(x, str) or not x for x in labels):
        raise ValidationError(f"{what} must be non-empty strings")
    if len(set(labels)) != len(labels):
        raise ValidationError(f"{what} must be unique, got {labels!r}")


@dataclass(frozen=True)
class DecisionProblem:
    """A rectangular multi-decision-maker, multi-criterion rating problem.

    ``criterion_weights[d][c]`` weighs criterion ``c`` for decision maker
    ``d``; ``ratings[d][a][c]`` is the classical BPA rating alternative ``a``
    on criterion ``c`` according to decision maker ``d``.
    """

    alternatives: tuple[str, ...]
    criteria: tuple[str, ...]
    decision_makers: tuple[str, ...]
    dm_weights: tuple[Interval, ...]
    criterion_weights: tuple[tuple[Interval, ...], ...]
    ratings: tuple[tuple[tuple[MassFunction, ...], ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "alternatives", tuple(self.alternatives))
        object.__setattr__(self, "criteria", tuple(self.criteria))
        object.__setattr__(self, "decision_makers", tuple(self.decision_makers))
        object.__setattr__(self, "dm_weights", tuple(self.dm_weights))
        object.__setattr__(
            self, "criterion_weights", tuple(tuple(ws) for ws in self.criterion_weights)
        )
        object.__setattr__(
            self, "ratings", tuple(tuple(tuple(row) for row in dm) for dm in self.ratings)
        )

        _unique_labels(self.alternatives, "alternative labels")
        _unique_labels(self.criteria, "criterion labels")
        _unique_labels(self.decision_makers, "decision maker labels")

        n_dm, n_alt, n_crit = len(self.decision_makers), len(self.alternatives), len(self.criteria)
        if len(self.dm_weights) != n_dm:
            raise ValidationError(
                f"expected {n_dm} decision maker weights, got {len(self.dm_weights)}"
            )
        if len(self.criterion_weights) != n_dm or any(
            len(ws) != n_crit for ws in self.criterion_weights
        ):
            raise ValidationError(
                f"criterion weights must be a {n_dm} x {n_crit} grid of intervals"
            )
        if len(self.ratings) != n_dm or any(
            len(dm) != n_alt or any(len(row) != n_crit for row in dm) for dm in self.ratings
        ):
            raise ValidationError(
                f"ratings must be a {n_dm} x {n_alt} x {n_crit} grid of mass functions"
            )

        for w in self.dm_weights:
            if w.lo < 0.0:
                raise InvalidWeight(f"decision maker weights must be non-negative, got [{w.lo}, {w.hi}]")
        for ws in self.criterion_weights:
            for w in ws:
                if w.lo < 0.0:
                    raise InvalidWeight(f"criterion weights must be non-negative, got [{w.lo}, {w.hi}]")
        if max(w.hi for w in self.dm_weights) <= 0.0:
            raise AllZeroWeights("decision maker weights are all zero")
        if max(w.hi for ws in self.criterion_weights for w in ws) <= 0.0:
            raise AllZeroWeights("criterion weights are all zero")


@dataclass(frozen=True)
class RankingReport:
    """Output of :func:`rank_alternatives`.

    ``ranking`` lists alternative labels by non-increasing ``bets`` value,
    ties broken by input order. The trace is four tables of the kernel's
    (IS, NS, full frame) triples, named as in a full-trace JSON report and
    indexed like the problem: ``cells[d][a][c]``, ``fused_per_dm[d][a]`` and
    ``final[a]`` hold (left, right) pairs of triples, ``collapsed[a]`` one
    triple. Each triple is the one ``MassFunction(t).masses`` would store.
    The tables are tuples, built together on first access by a rerun of the
    deterministic kernel, so they hold exactly the values the bets came
    from. A report constructed directly has no problem and no trace.
    """

    alternatives: tuple[str, ...]
    criteria: tuple[str, ...]
    decision_makers: tuple[str, ...]
    criterion_normalization: str
    normalized_criterion_weights: tuple[tuple[Interval, ...], ...]
    normalized_dm_weights: tuple[Interval, ...]
    bets: tuple[float, ...]
    ranking: tuple[str, ...]
    _problem: DecisionProblem | None = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        if sorted(self.ranking) != sorted(self.alternatives):
            raise ValidationError("ranking must be a permutation of the alternatives")
        by_label = dict(zip(self.alternatives, self.bets))
        ordered = [by_label[label] for label in self.ranking]
        if any(a < b for a, b in zip(ordered, ordered[1:])):
            raise ValidationError("bet values along the ranking must be non-increasing")

    @cached_property
    def _rerun(self) -> tuple:
        if self._problem is None:
            raise ValueError("this report was not built by rank_alternatives and has no trace")
        rows: list[tuple[list[Triple], list[Triple]]] = []
        dm_fused, final, collapsed = _kernel(
            self._problem, self.normalized_criterion_weights, self.normalized_dm_weights, rows
        )
        n = len(self.alternatives)
        cells = tuple(
            tuple(tuple(zip(*row)) for row in rows[i : i + n]) for i in range(0, len(rows), n)
        )
        return cells, tuple(map(tuple, dm_fused)), tuple(final), tuple(collapsed)

    cells = property(lambda self: self._rerun[0])
    fused_per_dm = property(lambda self: self._rerun[1])
    final = property(lambda self: self._rerun[2])
    collapsed = property(lambda self: self._rerun[3])


def _located(exc: IntervalFusionError, where: str) -> IntervalFusionError:
    return type(exc)(f"{where}: {exc}")


# --- closed-form kernel -------------------------------------------------------
# The per-object steps above, on the triples their MassFunction values hold,
# with the same evidence.py arithmetic in the same order: bit-identical.


def _kernel(
    problem: DecisionProblem,
    crit_weights: Sequence[Sequence[Interval]],
    dm_weights: Sequence[Interval],
    rows: list | None = None,
) -> tuple[list[list[tuple[Triple, Triple]]], list[tuple[Triple, Triple]], list[Triple]]:
    """Steps 2-4 on triples, in the order of the per-object pipeline.

    Returns the per-decision-maker fusions ``[d][a]`` and the final interval
    BPAs ``[a]`` as (left, right) pairs, and the collapsed triples ``[a]``.
    If ``rows`` is given, each (decision maker, alternative) row's
    discounted (left parts, right parts) is appended to it. Errors carry the
    coordinates of the failing step. A weight endpoint enters as ``x + 0.0``:
    a -0.0 weight discounts to the +0.0 masses a MassFunction stores.
    """
    dm_fused: list[list[tuple[Triple, Triple]]] = []
    for d, dm in enumerate(problem.decision_makers):
        bounds = [(w.lo + 0.0, w.hi + 0.0) for w in crit_weights[d]]
        fused_row: list[tuple[Triple, Triple]] = []
        for a, alt in enumerate(problem.alternatives):
            lefts: list[Triple] = []
            rights: list[Triple] = []
            for c, m in enumerate(problem.ratings[d][a]):
                lo, hi = bounds[c]
                p, q, _ = m.masses
                try:
                    lefts.append(discount(p, q, lo))
                    rights.append(discount(p, q, hi))
                except IntervalFusionError as exc:
                    where = f"decision maker {dm!r}, alternative {alt!r}, criterion {problem.criteria[c]!r}"
                    raise _located(exc, where) from exc
            try:
                fused_row.append((reduce(dempster, lefts), reduce(dempster, rights)))
            except IntervalFusionError as exc:
                raise _located(exc, f"decision maker {dm!r}, alternative {alt!r}") from exc
            if rows is not None:
                rows.append((lefts, rights))
        dm_fused.append(fused_row)

    dm_bounds = [(w.lo + 0.0, w.hi + 0.0) for w in dm_weights]
    final: list[tuple[Triple, Triple]] = []
    collapsed: list[Triple] = []
    for a, alt in enumerate(problem.alternatives):
        lefts, rights = [], []
        for dm, (lo, hi), row in zip(problem.decision_makers, dm_bounds, dm_fused):
            left, right = row[a]
            try:
                lefts.append(discount(left[0], left[1], lo))
                rights.append(discount(right[0], right[1], hi))
            except IntervalFusionError as exc:
                raise _located(exc, f"decision maker {dm!r}, alternative {alt!r}") from exc
        try:
            pair = (reduce(dempster, lefts), reduce(dempster, rights))
            collapsed.append(dempster(*pair))
        except IntervalFusionError as exc:
            raise _located(exc, f"alternative {alt!r}") from exc
        final.append(pair)
    return dm_fused, final, collapsed


def rank_alternatives(
    problem: DecisionProblem, *, criterion_normalization: str = POOLED
) -> RankingReport:
    """Run the full pipeline and rank the alternatives.

    ``criterion_normalization`` chooses the normalization group for criterion
    weights: ``"pooled"`` divides every decision maker's criterion weights by
    the single largest endpoint across all of them; ``"per-dm"`` normalizes
    each decision maker's weights within their own group. Decision-maker
    weights always normalize as one group. Failures raise the underlying
    error annotated with the (decision maker, alternative, criterion)
    coordinates of the failing cell.
    """
    if criterion_normalization not in (POOLED, PER_DM):
        raise ValueError(
            f"criterion_normalization must be {POOLED!r} or {PER_DM!r}, "
            f"got {criterion_normalization!r}"
        )

    if criterion_normalization == POOLED:
        normalized = normalize_weight_group(w for ws in problem.criterion_weights for w in ws)
        n = len(problem.criteria)
        crit_weights = tuple(tuple(normalized[i : i + n]) for i in range(0, len(normalized), n))
    else:
        per_dm: list[tuple[Interval, ...]] = []
        for d, dm in enumerate(problem.decision_makers):
            try:
                per_dm.append(tuple(normalize_weight_group(problem.criterion_weights[d])))
            except IntervalFusionError as exc:
                raise _located(exc, f"decision maker {dm!r} criterion weights") from exc
        crit_weights = tuple(per_dm)
    dm_weights = tuple(normalize_weight_group(problem.dm_weights))

    _, _, collapsed = _kernel(problem, crit_weights, dm_weights)
    bets = [first + full / 2.0 for first, _, full in collapsed]  # bet_ideal on a triple

    order = sorted(range(len(bets)), key=lambda i: -bets[i])
    ranking = tuple(problem.alternatives[i] for i in order)

    report = RankingReport(
        alternatives=problem.alternatives,
        criteria=problem.criteria,
        decision_makers=problem.decision_makers,
        criterion_normalization=criterion_normalization,
        normalized_criterion_weights=crit_weights,
        normalized_dm_weights=dm_weights,
        bets=tuple(bets),
        ranking=ranking,
    )
    object.__setattr__(report, "_problem", problem)
    return report
