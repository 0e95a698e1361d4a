"""Interval-weighted evidence fusion and ranking.

The five-step method implemented here, each step by the named stage
function that :func:`rank_alternatives` runs on (IS, NS, full frame) triples:

1. ingest classical BPAs rating each alternative against each criterion
   (generation of those BPAs from raw performance data is out of scope);
2. normalize criterion weights by the largest endpoint of the weight group
   (:func:`normalize_weight_group`) and discount each rating into an interval
   BPA, a pair of classical BPAs built from the weight's lower and upper
   bound (:func:`discount_to_interval_bpa`);
3. fuse the interval BPAs across criteria, left parts together and right
   parts together (:func:`fuse_interval_bpas`), then discount each decision
   maker's fused result by the normalized decision-maker weight
   (:func:`discount_interval_bpa`) and fuse across decision makers;
4. collapse each alternative's final interval BPA by combining its left and
   right part into one classical BPA (:func:`collapse_interval_bpa`);
5. rank alternatives by pignistic belief in the ideal hypothesis
   (:func:`bet_ideal`).

Every rating lives on the one frame ``evidence.FRAME`` = (IS, NS), whose
first element is the "ideal" hypothesis and whose second is the "negative
ideal" one; mass on the full frame is uncommitted belief. Rating triples are
always ordered (first singleton, second singleton, full frame). The stage
functions are not public API.
"""

from __future__ import annotations

import gc
from collections.abc import Iterable, Iterator, Sequence
from functools import cached_property, wraps

from .errors import AllZeroWeights, IntervalFusionError, InvalidWeight, ValidationError
from .evidence import MassFunction, Triple, discount, fold
from .intervals import Interval, Value

#: Criterion weights pooled across all decision makers form one
#: normalization group (the default), or each decision maker's weights
#: normalize within their own group.
POOLED = "pooled"
PER_DM = "per-dm"


def _nogc(func):
    """``func`` run with the cyclic garbage collector switched off, and
    switched back on afterwards only if it was on when ``func`` was called.
    The package builds only acyclic values (tuples, lists, dicts and
    instances of its own types), which reference counting frees, so a
    collection during a bulk build walks every new object and frees none.
    The switch is process-wide: a ``gc.disable()`` made by another thread
    while ``func`` runs is undone when it returns."""

    @wraps(func)
    def paused(*args, **kwargs):
        enabled = gc.isenabled()
        gc.disable()
        try:
            return func(*args, **kwargs)
        finally:
            if enabled:
                gc.enable()

    return paused


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


def _unique_labels(labels: Sequence[str], what: str) -> None:
    if not labels:
        raise ValidationError(f"{what} must not be empty")
    if any(not isinstance(x, str) or not x for x in labels):
        raise ValidationError(f"{what} must be non-empty strings")
    if len(set(labels)) != len(labels):
        raise ValidationError(f"{what} must be unique, got {labels!r}")


def _wrong_type(value, expected: str, where: str) -> ValidationError:
    return ValidationError(f"{where}: expected {expected}, got {type(value).__name__}")


def _where(field: str, at: tuple) -> str:
    return field + "".join(f"[{label!r}]" for label in at)


def _grid(value, field: str, shape_error: str = "", *axes: tuple, leaf: type = object, at: tuple = ()) -> tuple:
    """``value`` as nested tuples, one level per label tuple in ``axes`` and
    as long as it, else ValidationError ``shape_error``. A level that is not a
    tuple or list, or a cell of the innermost level that is not a ``leaf``,
    raises ValidationError naming ``field`` and the labels ``at`` which it
    lies. The walk is depth-first, so the first fault in label order is the
    one raised."""
    if not isinstance(value, (tuple, list)):
        raise _wrong_type(value, "a sequence", _where(field, at))
    if not axes:
        return tuple(value)
    labels, *inner = axes
    if len(value) != len(labels):
        raise ValidationError(shape_error)
    if inner:
        return tuple([_grid(v, field, shape_error, *inner, leaf=leaf, at=(*at, label)) for label, v in zip(labels, value)])
    for label, v in zip(labels, value):
        if not isinstance(v, leaf):
            article = "an" if leaf.__name__[0] in "AEIOU" else "a"
            raise _wrong_type(v, f"{article} {leaf.__name__}", _where(field, (*at, label)))
    return tuple(value)


class DecisionProblem(Value):
    """A rectangular multi-decision-maker, multi-criterion rating problem.

    ``criterion_weights[d][c]`` weighs criterion ``c`` for decision maker
    ``d``; ``ratings[d][a][c]`` is the classical BPA rating alternative ``a``
    on criterion ``c`` according to decision maker ``d``. Every field and
    grid row is a tuple or a list (a string, set, dict or iterator is
    rejected), and is stored as a tuple. A field, row, weight or rating of
    another type raises ValidationError naming it, as in
    ``ratings['D']['A']['C']``. Fields are checked in declaration order and
    each grid in label order, a row's length before its cells' types, and
    the first fault met is the one raised.

    :func:`load_problem` skips these checks (:func:`_loaded_problem`): the
    loader has made each of them on the document, naming its coordinates.
    """

    __slots__ = ("alternatives", "criteria", "decision_makers", "dm_weights", "criterion_weights", "ratings")

    def __init__(self, alternatives: Sequence[str], criteria: Sequence[str], decision_makers: Sequence[str],
                 dm_weights: Sequence[Interval], criterion_weights: Sequence[Sequence[Interval]],
                 ratings: Sequence[Sequence[Sequence[MassFunction]]]) -> None:
        self._init(alternatives, criteria, decision_makers, dm_weights, criterion_weights, ratings)
        for name in ("alternatives", "criteria", "decision_makers"):
            object.__setattr__(self, name, _grid(getattr(self, name), name))
        _unique_labels(self.alternatives, "alternative labels")
        _unique_labels(self.criteria, "criterion labels")
        _unique_labels(self.decision_makers, "decision maker labels")

        dms, alts, crits = self.decision_makers, self.alternatives, self.criteria
        for name, shape_error, axes, leaf in (
            ("dm_weights", f"decision maker weights must be a sequence of {len(dms)} intervals", (dms,), Interval),
            ("criterion_weights", f"criterion weights must be a {len(dms)} x {len(crits)} grid of intervals",
             (dms, crits), Interval),
            ("ratings", f"ratings must be a {len(dms)} x {len(alts)} x {len(crits)} grid of mass functions",
             (dms, alts, crits), MassFunction),
        ):
            object.__setattr__(self, name, _grid(getattr(self, name), name, shape_error, *axes, leaf=leaf))

        for w in self.dm_weights:
            if w.lo < 0.0:
                raise InvalidWeight(f"decision maker weights must be non-negative, got [{w.lo}, {w.hi}]")
        for w in (w for ws in self.criterion_weights for w in ws):
            if w.lo < 0.0:
                raise InvalidWeight(f"criterion weights must be non-negative, got [{w.lo}, {w.hi}]")
        if max(w.hi for w in self.dm_weights) <= 0.0:
            raise AllZeroWeights("decision maker weights are all zero")
        if max(w.hi for ws in self.criterion_weights for w in ws) <= 0.0:
            raise AllZeroWeights("criterion weights are all zero")


def _loaded_problem(*fields) -> DecisionProblem:
    """The DecisionProblem of the six ``fields``, in constructor order, that
    ``loading._build_problem`` has checked, built without the constructor's
    checks. The loader keeps each invariant those check. It builds every field
    and row as a tuple. ``_label_list`` and the ``decision_makers`` name checks
    make labels unique, non-empty strings. ``_parse_weight`` and the
    ``criterion_weights`` length check give one non-negative ``Interval`` per
    decision maker and per criterion of each. Two checks reject an all-zero
    weight field. ``_check_keys`` on each level of ``ratings``, and
    ``_parse_row``, give one ``MassFunction`` per decision maker, alternative
    and criterion."""
    problem = object.__new__(DecisionProblem)
    problem._init(*fields)
    return problem


class RankingReport(Value):
    """Output of :func:`rank_alternatives`.

    ``ranking`` lists alternative labels by non-increasing ``bets`` value,
    ties broken by input order. The trace is four tables of the kernel's
    (IS, NS, full frame) triples, named as in a full-trace JSON report and
    indexed like the problem: ``cells[d][a][c]``, ``fused_per_dm[d][a]`` and
    ``final[a]`` hold (left, right) pairs of triples, ``collapsed[a]`` one
    triple. Each triple is the one ``MassFunction(t).masses`` would store.
    The tables are tuples, built together on first access by a rerun of the
    deterministic kernel, with the cyclic garbage collector paused, so they
    hold exactly the values the bets came from. A report constructed
    directly has no problem and no trace.
    """

    __slots__ = ("alternatives", "criteria", "decision_makers", "criterion_normalization",
                 "normalized_criterion_weights", "normalized_dm_weights", "bets", "ranking", "_problem", "__dict__")

    def __init__(self, alternatives: tuple[str, ...], criteria: tuple[str, ...], decision_makers: tuple[str, ...],
                 criterion_normalization: str, normalized_criterion_weights: tuple[tuple[Interval, ...], ...],
                 normalized_dm_weights: tuple[Interval, ...], bets: tuple[float, ...], ranking: tuple[str, ...],
                 _problem: DecisionProblem | None = None) -> None:
        self._init(alternatives, criteria, decision_makers, criterion_normalization, normalized_criterion_weights,
                   normalized_dm_weights, bets, ranking, _problem)
        if sorted(self.ranking) != sorted(self.alternatives):
            raise ValidationError("ranking must be a permutation of the alternatives")
        if len(self.bets) != len(self.alternatives):
            raise ValidationError("bets must hold one value per alternative")
        by_label = dict(zip(self.alternatives, self.bets))
        ordered = [by_label[label] for label in self.ranking]
        if any(a < b for a, b in zip(ordered, ordered[1:])):
            raise ValidationError("bet values along the ranking must be non-increasing")

    @cached_property
    @_nogc
    def _rerun(self) -> tuple:
        if self._problem is None:
            raise ValueError("this report was not built by rank_alternatives and has no trace")
        rows: list[Iterator[tuple[Triple, Triple]]] = []
        dm_fused, final, collapsed = _kernel(
            self._problem, self.normalized_criterion_weights, self.normalized_dm_weights, rows
        )
        n = len(self.alternatives)
        cells = tuple(tuple(map(tuple, rows[i : i + n])) for i in range(0, len(rows), n))
        return cells, tuple(map(tuple, dm_fused)), tuple(final), tuple(collapsed)

    cells = property(lambda self: self._rerun[0])
    fused_per_dm = property(lambda self: self._rerun[1])
    final = property(lambda self: self._rerun[2])
    collapsed = property(lambda self: self._rerun[3])


def _located(exc: IntervalFusionError, where: str) -> IntervalFusionError:
    return type(exc)(f"{where}: {exc}")


# --- closed-form kernel -------------------------------------------------------
# The steps as stages on triples. _kernel looks each stage up as a module
# global at call time, so a wrapper set on this module sees every call. The
# stages take settled triples and normalized weight endpoints, which lie in
# [0, 1], so a discount never raises: only a fold can.


def discount_to_interval_bpa(
    triples: Sequence[Triple], los: Sequence[float], his: Sequence[float]
) -> tuple[list[Triple], list[Triple]]:
    """Discount a row of rating triples into interval BPAs: the left parts by
    their weights' lower bounds ``los``, the right parts by the upper bounds
    ``his``."""
    return discount(triples, los), discount(triples, his)


def discount_interval_bpa(
    lefts: Sequence[Triple], rights: Sequence[Triple], los: Sequence[float], his: Sequence[float]
) -> tuple[list[Triple], list[Triple]]:
    """Discount a row of interval BPAs, given as their left and right parts:
    the left parts by the lower bounds ``los``, the right parts by the upper
    bounds ``his``."""
    return discount(lefts, los), discount(rights, his)


def fuse_interval_bpas(lefts: Sequence[Triple], rights: Sequence[Triple]) -> tuple[Triple, Triple]:
    """Fuse interval BPAs from several sources: all left parts fold into the
    new left part, then all right parts into the new right part."""
    return fold(lefts), fold(rights)


def collapse_interval_bpa(pair: tuple[Triple, Triple]) -> Triple:
    """Combine the left and right part of an interval BPA into one triple."""
    return fold(pair)


def bet_ideal(m: Triple) -> float:
    """Pignistic belief in the first frame element: m({first}) + m(full)/2."""
    first, _, full = m
    return first + full / 2.0


def _failed_step(lefts: Sequence[Triple], rights: Sequence[Triple]) -> int | None:
    """The index of the source at whose step :func:`fuse_interval_bpas` of
    ``lefts`` and ``rights`` raises, or None if both folds succeed. Each side
    is folded one step at a time: ``fold`` of the running result and the next
    triple is the same step as in one whole ``fold``. Only error paths call
    this, so a rank that succeeds pays nothing for it."""
    for side in (lefts, rights):
        acc = side[0]
        for i in range(1, len(side)):
            try:
                acc = fold((acc, side[i]))
            except IntervalFusionError:
                return i
    return None


def _kernel(
    problem: DecisionProblem,
    crit_weights: Sequence[Sequence[Interval]],
    dm_weights: Sequence[Interval],
    rows: list | None = None,
) -> tuple[list[list[tuple[Triple, Triple]]], list[tuple[Triple, Triple]], list[Triple]]:
    """Steps 2-4: discount and fuse each (decision maker, alternative) row of
    ratings, then discount and fuse each alternative's column of the row
    fusions, then collapse. Returns the fusions ``[d][a]``, final pairs
    ``[a]`` and collapsed triples ``[a]``; appends an iterator over each row's
    discounted (left, right) pairs to ``rows`` if given. A weight endpoint
    enters as ``x + 0.0``: -0.0 discounts to +0.0 masses."""
    dm_fused: list[list[tuple[Triple, Triple]]] = []
    for dm, ws, dm_ratings in zip(problem.decision_makers, crit_weights, problem.ratings):
        los, his = [w.lo + 0.0 for w in ws], [w.hi + 0.0 for w in ws]
        fused_row: list[tuple[Triple, Triple]] = []
        for alt, ratings in zip(problem.alternatives, dm_ratings):
            lefts, rights = discount_to_interval_bpa([m.masses for m in ratings], los, his)
            try:
                fused_row.append(fuse_interval_bpas(lefts, rights))
            except IntervalFusionError as exc:
                crit = problem.criteria[_failed_step(lefts, rights)]
                raise _located(exc, f"decision maker {dm!r}, alternative {alt!r}, criterion {crit!r}") from exc
            if rows is not None:
                rows.append(zip(lefts, rights))
        dm_fused.append(fused_row)

    dm_los, dm_his = [w.lo + 0.0 for w in dm_weights], [w.hi + 0.0 for w in dm_weights]
    final, collapsed = [], []
    for alt, column in zip(problem.alternatives, zip(*dm_fused)):
        lefts, rights = discount_interval_bpa(*zip(*column), dm_los, dm_his)
        try:
            pair = fuse_interval_bpas(lefts, rights)
            collapsed.append(collapse_interval_bpa(pair))
        except IntervalFusionError as exc:
            step = _failed_step(lefts, rights)
            where = "collapse" if step is None else f"decision maker {problem.decision_makers[step]!r}"
            raise _located(exc, f"alternative {alt!r}, {where}") from exc
        final.append(pair)
    return dm_fused, final, collapsed


@_nogc
def rank_alternatives(
    problem: DecisionProblem, *, criterion_normalization: str = POOLED
) -> RankingReport:
    """Run the full pipeline and rank the alternatives.

    ``criterion_normalization`` chooses the normalization group for criterion
    weights: ``"pooled"`` divides every decision maker's criterion weights by
    the single largest endpoint across all of them; ``"per-dm"`` normalizes
    each decision maker's weights within their own group. Decision-maker
    weights always normalize as one group. A failure raises the underlying
    error prefixed by its place: the decision maker of a per-dm weight group;
    the decision maker, alternative and criterion of a fold over the
    criteria, as in ``decision maker 'D', alternative 'A', criterion 'C':``;
    the alternative and decision maker of the fold over the decision makers;
    or the alternative and ``collapse`` for the collapse. The criterion or
    decision maker named is the source whose step of the fold raised.
    The cyclic garbage collector is paused while it runs.
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
    bets = [bet_ideal(t) for t in collapsed]

    order = sorted(range(len(bets)), key=lambda i: -bets[i])
    ranking = tuple(problem.alternatives[i] for i in order)

    return RankingReport(
        alternatives=problem.alternatives,
        criteria=problem.criteria,
        decision_makers=problem.decision_makers,
        criterion_normalization=criterion_normalization,
        normalized_criterion_weights=crit_weights,
        normalized_dm_weights=dm_weights,
        bets=tuple(bets),
        ranking=ranking,
        _problem=problem,
    )
