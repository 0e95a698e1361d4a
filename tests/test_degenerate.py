"""Crisp weights: a degenerate interval BPA is discounted and fused once.

A classical rating ``t`` is the interval BPA (t, t). Under a crisp weight
``[w, w]`` both parts are discounted by the same ``w``, so they stay equal
through the per-decision-maker fusion, the cross-decision-maker discount and
fusion. The fusion stage then discounts and folds one part, in one fold,
and returns it as both. These tests pin the calls saved and that no bit,
error or trace byte changes.
"""

import copy
import pickle
import random

import pytest

from intervalfusion import DecisionProblem, Interval, emit_report, pipeline, rank_alternatives
from intervalfusion.errors import TotalConflict
from intervalfusion.evidence import _settle
from intervalfusion.reporting import FULL_TRACE, HUMAN_TABLE, JSON_FORMAT

from per_object import per_object_rank
from test_properties import TABLES, hexed

D, A, C = 3, 4, 5


def weight(rng, crisp):
    lo = rng.uniform(0.1, 1.0)
    return Interval(lo, lo) if crisp else Interval(lo, lo + (1.0 - lo) * rng.random())


def rating(rng):
    # at least 10% uncommitted, so that no fold reaches total conflict
    a = rng.uniform(0.0, 0.9)
    b = rng.uniform(0.0, 0.9 - a)
    return _settle(a, b, 1.0 - a - b)


def problem(dm_crisp, crit_crisp, seed=0):
    """A D x A x C problem; ``dm_crisp`` and ``crit_crisp`` say which weights
    are crisp: True, False, or "mixed" for every other one."""
    rng = random.Random(seed)

    def crisp(kind, i):
        return kind if kind != "mixed" else i % 2 == 0

    return DecisionProblem(
        alternatives=tuple(f"A{i}" for i in range(A)),
        criteria=tuple(f"C{i}" for i in range(C)),
        decision_makers=tuple(f"D{i}" for i in range(D)),
        dm_weights=tuple(weight(rng, crisp(dm_crisp, d)) for d in range(D)),
        criterion_weights=tuple(tuple(weight(rng, crisp(crit_crisp, d * C + c)) for c in range(C)) for d in range(D)),
        ratings=tuple(tuple(tuple(rating(rng) for _ in range(C)) for _ in range(A)) for _ in range(D)),
    )


PROBLEMS = {
    "all-crisp": (True, True),
    "crisp-criteria-interval-dms": (False, True),
    "interval-criteria-crisp-dms": (True, False),
    "mixed": ("mixed", "mixed"),
    "all-interval": (False, False),
}


@pytest.fixture
def kernel_calls(monkeypatch):
    """How often the stages call ``discount`` and ``fold`` while a test runs."""
    calls = {"discount": 0, "fold": 0}
    for name in calls:
        def counted(*args, _kernel=getattr(pipeline, name), _name=name):
            calls[_name] += 1
            return _kernel(*args)

        monkeypatch.setattr(pipeline, name, counted)
    return calls


@pytest.mark.parametrize("name, discounts, folds", [
    # each fold discounts its own sources, so the rank calls no discount:
    # rows, one fold per (decision maker, alternative), two under interval
    # criterion weights; then per alternative the cross fusion, one fold or
    # two, and one collapse fold
    ("all-crisp", 0, D * A + 2 * A),
    ("crisp-criteria-interval-dms", 0, D * A + 3 * A),
    ("interval-criteria-crisp-dms", 0, 2 * D * A + 3 * A),
    ("all-interval", 0, 2 * D * A + 3 * A),
])
def test_a_crisp_weight_costs_one_discount_and_one_fold(name, discounts, folds, kernel_calls):
    rank_alternatives(problem(*PROBLEMS[name]))
    assert kernel_calls == {"discount": discounts, "fold": folds}


@pytest.mark.parametrize("name", ["all-crisp", "crisp-criteria-interval-dms", "mixed"])
@pytest.mark.parametrize("normalization", ["pooled", "per-dm"])
def test_kernel_matches_per_object_fold(name, normalization):
    prob = problem(*PROBLEMS[name], seed=7)
    report = rank_alternatives(prob, criterion_normalization=normalization)
    expected = per_object_rank(prob, normalization)
    assert hexed(report.bets) == hexed(expected["bets"])
    for table in TABLES:
        assert hexed(getattr(report, table)) == hexed(expected[table]), table


def test_crisp_pairs_share_one_tuple():
    # the kept fusions carry a crisp pair once; the cells, read from the
    # discount's flat row, hold two equal tuples
    report = rank_alternatives(problem(True, True))
    pairs = [p for dm in report.fused_per_dm for p in dm]
    assert all(left is right for left, right in pairs + list(report.final))
    cells = [p for dm in report.cells for row in dm for p in row]
    assert all(hexed(left) == hexed(right) for left, right in cells)


@pytest.mark.parametrize("round_trip", [lambda v: pickle.loads(pickle.dumps(v)), copy.deepcopy],
                         ids=["pickle", "deepcopy"])
def test_round_trip_of_a_crisp_report(round_trip):
    report = rank_alternatives(problem(True, True))
    assert report.cells
    again = round_trip(report)
    assert again == report
    assert all(left is right for left, right in again.final)
    for fmt in (HUMAN_TABLE, JSON_FORMAT):
        assert emit_report(again, FULL_TRACE, fmt) == emit_report(report, FULL_TRACE, fmt)


CERTAIN_IS, CERTAIN_NS, MILD = (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.5, 0.3, 0.2)


def opposed(dm_weights, criterion_weights, ratings):
    labels = ("A1", "A2"), ("C1", "C2", "C3"), tuple(f"DM{d + 1}" for d in range(len(dm_weights)))
    return DecisionProblem(
        *labels,
        dm_weights=tuple(Interval(w, w) for w in dm_weights),
        criterion_weights=tuple(tuple(Interval(w, w) for w in ws) for ws in criterion_weights),
        ratings=tuple(tuple(tuple(_settle(*t) for t in row) for row in dm) for dm in ratings),
    )


# Messages as the kernel gave them before crisp rows were folded once.
@pytest.mark.parametrize("prob, message", [
    (opposed([1.0, 0.5], [[1.0, 0.5, 1.0], [1.0, 0.5, 1.0]],
             [[[MILD] * 3] * 2, [[MILD] * 3, [CERTAIN_IS, MILD, CERTAIN_NS]]]),
     "decision maker 'DM2', alternative 'A2', criterion 'C3': conflict coefficient is 1.0; "
     "combination is undefined"),
    (opposed([0.5, 1.0, 1.0], [[1.0, 1.0, 1.0]] * 3,
             [[[MILD] * 3] * 2, [[MILD] * 3, [CERTAIN_IS] * 3], [[MILD] * 3, [CERTAIN_NS] * 3]]),
     "alternative 'A2', decision maker 'DM3': conflict coefficient is 1.0; combination is undefined"),
], ids=["row", "cross"])
def test_crisp_total_conflict_names_its_place(prob, message):
    for rank in (rank_alternatives, lambda p: per_object_rank(p, "pooled")):
        with pytest.raises(TotalConflict) as err:
            rank(prob)
        assert str(err.value) == message
