"""Interval-weighted evidence fusion and ranking.

The five-step method implemented here, each step by the named stage
function that :func:`rank_alternatives` runs on (IS, NS, full frame) triples:

1. ingest classical BPAs rating each alternative against each criterion
   (generation of those BPAs from raw performance data is out of scope);
2. normalize each weight group, criterion and decision-maker, by its
   largest endpoint (:func:`normalize_weight_group`);
3. discount each rating r, as the interval BPA (r, r), by its criterion
   weight's lower and upper bound into a pair of classical BPAs, and fuse
   these across criteria, left parts together and right parts together
   (:func:`fuse_interval_bpas`, which discounts each source as it folds
   it); then discount each decision maker's fused result by the normalized
   decision-maker weight and fuse across decision makers, by the same
   stage. The trace's discounted cells come from one pass over each row
   (:func:`discount_to_interval_bpa`);
4. collapse each alternative's final interval BPA by combining its left and
   right part into one classical BPA (:func:`collapse_interval_bpa`);
5. rank alternatives by pignistic belief in the ideal hypothesis
   (:func:`bet_ideal`).

Every rating lives on the one frame ``evidence.FRAME`` = (IS, NS), whose
first element is the "ideal" hypothesis and whose second is the "negative
ideal" one; mass on the full frame is uncommitted belief. Rating triples are
always ordered (first singleton, second singleton, full frame). The stage
functions, :func:`normalize_weight_group` among them, are not public API.
"""

from __future__ import annotations

import gc
from collections.abc import Iterator, Sequence
from functools import wraps

from .errors import AllZeroWeights, IntervalFusionError
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


class _cached:
    """A field that ``build`` makes on the first read, with the collector
    paused, and keeps in the instance's ``__dict__`` under its own name. A
    later read finds it there before this descriptor, as with
    ``functools.cached_property``, so it never switches the collector; that
    one would store the value after the pause has ended."""

    def __init__(self, build):
        self.name, self.build = build.__name__, build

    @_nogc
    def __get__(self, obj, cls=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.build(obj)
        return value


def normalize_weight_group(group: Sequence[Interval]) -> list[Interval]:
    """Divide every interval in the group by the largest endpoint found in
    the whole group, so all normalized upper bounds are <= 1. The group is
    one of a checked problem's, so it is non-empty and non-negative; a
    per-dm group can still be all zero, which raises AllZeroWeights."""
    a_max = max(w.hi for w in group)
    if a_max <= 0.0:
        raise AllZeroWeights("all weights in the group are zero")
    return [Interval(w.lo / a_max, w.hi / a_max) for w in group]


class DecisionProblem(Value):
    """A rectangular multi-decision-maker, multi-criterion rating problem.

    ``criterion_weights[d][c]`` weighs criterion ``c`` for decision maker
    ``d``; ``ratings[d][a][c]`` is the classical BPA rating alternative ``a``
    on criterion ``c`` according to decision maker ``d``. The constructor
    takes the ratings as the grid of their ``(m_IS, m_NS, m_Θ)`` triples,
    stores its fields and checks none. :func:`load_problem` is the one
    checked way to make a problem: it builds every field and row as a tuple,
    labels as unique, non-empty strings, one non-negative ``Interval`` per
    decision maker and per criterion of each, with a positive endpoint in
    each weight field, and one triple per decision maker, alternative and
    criterion, each one ``MassFunction`` would store. A problem built
    directly is unchecked and unsupported.

    The kernel reads ``_triples``, and ``ratings`` is a view of it, built on
    first access with the collector paused: a ``MassFunction`` per cell,
    holding its very triple. Equality, hashing, pickling and copying go by
    ``_triples``, so they build no cell.
    """

    _fields = ("alternatives", "criteria", "decision_makers", "dm_weights", "criterion_weights", "_triples")
    __slots__ = (*_fields, "__dict__")

    def __init__(self, alternatives: tuple[str, ...], criteria: tuple[str, ...], decision_makers: tuple[str, ...],
                 dm_weights: tuple[Interval, ...], criterion_weights: tuple[tuple[Interval, ...], ...],
                 ratings: tuple[tuple[tuple[Triple, ...], ...], ...]) -> None:
        self._init(alternatives, criteria, decision_makers, dm_weights, criterion_weights, ratings)

    @_cached
    def ratings(self) -> tuple:
        return tuple([tuple([tuple(map(_cell, row)) for row in dm]) for dm in self._triples])


_set_masses = MassFunction.masses.__set__  # the slot, past the raising __setattr__


def _cell(masses: Triple) -> MassFunction:
    """The MassFunction holding the checked triple ``masses``, built past ``__post_init__``."""
    _set_masses(m := object.__new__(MassFunction), masses)
    return m


class RankingReport(Value):
    """Output of :func:`rank_alternatives`, which makes every report.

    ``ranking`` lists alternative labels by non-increasing ``bets`` value,
    ties broken by input order. The trace is four tables of the kernel's
    (IS, NS, full frame) triples, named as in a full-trace JSON report and
    indexed like the problem: ``cells[d][a][c]``, ``fused_per_dm[d][a]`` and
    ``final[a]`` hold (left, right) pairs of triples, ``collapsed[a]`` one
    triple. Each triple is the one ``MassFunction(t).masses`` would store.
    The tables are tuples. The rank keeps the last three, beside the problem
    in ``_trace``, so equality, hashing, pickling and copying carry them.
    ``cells`` is built on first access, with the cyclic garbage collector
    paused, by discounting each rating row again with the normalized weights
    (:func:`discount_to_interval_bpa`). That is the arithmetic the fusion
    did inline, on the same inputs, so it holds exactly the values the bets
    came from. The constructor stores its fields and checks none: a report
    built by hand is unchecked and unsupported.
    """

    _fields = ("alternatives", "criteria", "decision_makers", "criterion_normalization",
               "normalized_criterion_weights", "normalized_dm_weights", "bets", "ranking", "_trace")
    __slots__ = (*_fields, "__dict__")
    __init__ = Value._init

    def _cell_rows(self) -> Iterator[tuple]:
        """The masses of each (decision maker, alternative) row of ``cells``,
        discounted again, in order, each row one flat tuple in trace order."""
        rows = _rows(self._trace[0], self.normalized_criterion_weights)
        return (discount_to_interval_bpa(row, los, his) for row, los, his in rows)

    @_cached
    def cells(self) -> tuple:
        pairs = [tuple([(r[i : i + 3], r[i + 3 : i + 6]) for i in range(0, len(r), 6)]) for r in self._cell_rows()]
        return _split(pairs, len(self.alternatives))

    fused_per_dm = property(lambda self: self._trace[1])
    final = property(lambda self: self._trace[2])
    collapsed = property(lambda self: self._trace[3])


def _located(exc: IntervalFusionError, where: str) -> IntervalFusionError:
    return type(exc)(f"{where}: {exc}")


# --- closed-form kernel -------------------------------------------------------
# The steps as stages on triples. _kernel looks each stage up as a module
# global at call time, so a wrapper set on this module sees every call. The
# stages take settled triples and normalized weight endpoints, which lie in
# [0, 1], so a discount never raises: only a Dempster step can, and fold
# names the source whose step raised. Each fusion discounts its sources as it
# folds them (``fold(triples, weights)``); the discount stage serves the
# trace walk.

# Step 3's discount of a row of ratings, each rating t the interval BPA
# (t, t), into the flat masses the trace shows: evidence.discount. The
# row-level name is the one the trace walk calls: a wrapper set on one name
# sees only the calls made through it.
discount_interval_bpa = discount_to_interval_bpa = discount


def fuse_interval_bpas(
    lefts: Sequence[Triple], rights: Sequence[Triple], los: Sequence[float], his: Sequence[float]
) -> tuple[Triple, Triple]:
    """Discount and fuse interval BPAs from several sources, given as their
    left and right parts: the left parts, each discounted by its lower bound
    in ``los``, fold into the new left part, then the right parts, each by
    its upper bound in ``his``, into the new right part.

    Degenerate BPAs under crisp weights (``lefts == rights``, ``los == his``)
    are folded once, and the one triple is returned as both parts. Every
    triple and endpoint the kernel passes is non-negative with its zeros
    +0.0 (the loader, ``MassFunction``, ``_endpoints`` and ``fold`` make no
    -0.0), so ``==`` on them means equal bits."""
    if los == his and lefts == rights:
        fused = fold(lefts, los)
        return fused, fused
    return fold(lefts, los), fold(rights, his)


def collapse_interval_bpa(pair: tuple[Triple, Triple]) -> Triple:
    """Combine the left and right part of an interval BPA into one triple."""
    return fold(pair)


def bet_ideal(m: Triple) -> float:
    """Pignistic belief in the first frame element: m({first}) + m(full)/2."""
    first, _, full = m
    return first + full / 2.0


def _endpoints(weights: Sequence[Interval]) -> tuple[list[float], list[float]]:
    """The lower and upper bounds of ``weights``, -0.0 read as +0.0."""
    return [w.lo + 0.0 for w in weights], [w.hi + 0.0 for w in weights]


def _split(items: Sequence, n: int) -> tuple:
    """``items`` as a tuple of consecutive tuples of ``n``."""
    return tuple([tuple(items[i : i + n]) for i in range(0, len(items), n)])


def _rows(problem: DecisionProblem, crit_weights: Sequence[Sequence[Interval]]) -> Iterator[tuple]:
    """Each (decision maker, alternative) row of rating triples in the
    problem's order, with the lower and upper bounds of its decision maker's
    normalized criterion weights."""
    for ws, dm_triples in zip(crit_weights, problem._triples):
        los, his = _endpoints(ws)
        for row in dm_triples:
            yield row, los, his


def _kernel(problem: DecisionProblem, crit_weights: Sequence[Sequence[Interval]], dm_weights: Sequence[Interval]):
    """Steps 3-4: discount and fuse each (decision maker, alternative) row of
    ratings, then each alternative's column of the row fusions, then
    collapse. Returns the fusions ``[d][a]``, final pairs ``[a]`` and
    collapsed triples ``[a]`` as tuples."""
    alts = problem.alternatives
    fused: list[tuple[Triple, Triple]] = []
    for row, los, his in _rows(problem, crit_weights):
        try:
            fused.append(fuse_interval_bpas(row, row, los, his))
        except IntervalFusionError as exc:
            d, a = divmod(len(fused), len(alts))
            where = f"decision maker {problem.decision_makers[d]!r}, alternative {alts[a]!r}"
            raise _located(exc, f"{where}, criterion {problem.criteria[exc.step]!r}") from exc
    dm_fused = _split(fused, len(alts))

    dm_los, dm_his = _endpoints(dm_weights)
    final, collapsed = [], []
    for alt, column in zip(alts, zip(*dm_fused)):
        lefts, rights = zip(*column)
        try:
            pair = fuse_interval_bpas(lefts, rights, dm_los, dm_his)
        except IntervalFusionError as exc:
            raise _located(exc, f"alternative {alt!r}, decision maker {problem.decision_makers[exc.step]!r}") from exc
        try:
            collapsed.append(collapse_interval_bpa(pair))
        except IntervalFusionError as exc:
            raise _located(exc, f"alternative {alt!r}, collapse") from exc
        final.append(pair)
    return dm_fused, tuple(final), tuple(collapsed)


@_nogc
def rank_alternatives(problem: DecisionProblem, *, criterion_normalization: str = POOLED) -> RankingReport:
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
        raise ValueError(f"criterion_normalization must be {POOLED!r} or {PER_DM!r}, got {criterion_normalization!r}")

    pooled = criterion_normalization == POOLED
    groups = [[w for ws in problem.criterion_weights for w in ws]] if pooled else problem.criterion_weights
    normalized: list[Interval] = []
    for d, group in enumerate(groups):  # a checked problem's pooled group is positive: only a per-dm one fails
        try:
            normalized += normalize_weight_group(group)
        except AllZeroWeights as exc:
            raise _located(exc, f"decision maker {problem.decision_makers[d]!r} criterion weights") from exc
    crit_weights = _split(normalized, len(problem.criteria))
    dm_weights = tuple(normalize_weight_group(problem.dm_weights))

    dm_fused, final, collapsed = _kernel(problem, crit_weights, dm_weights)
    bets = tuple([bet_ideal(t) for t in collapsed])
    ranking = tuple(problem.alternatives[i] for i in sorted(range(len(bets)), key=lambda i: -bets[i]))
    return RankingReport(problem.alternatives, problem.criteria, problem.decision_makers, criterion_normalization,
                         crit_weights, dm_weights, bets, ranking, (problem, dm_fused, final, collapsed))
