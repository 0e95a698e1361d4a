"""The cyclic garbage collector is paused while a problem is loaded, ranked
and traced, while its ratings view is built and while a report is emitted,
and its state is restored on every way out."""

import gc
import json
import random

import pytest

from intervalfusion import emit_report, load_problem, loading, rank_alternatives
from intervalfusion.errors import InvalidWeight, ParseError, SchemaError, TotalConflict, ValidationError
from intervalfusion.reporting import FULL_TRACE, HUMAN_TABLE, JSON_FORMAT


def document(n_dm, n_alt, n_crit, seed=0, crisp=False):
    """A valid document of random rating triples and interval weights, or
    with ``crisp`` each weight's upper endpoint as a crisp weight."""
    rng = random.Random(seed)
    alts = [f"A{i}" for i in range(n_alt)]
    crits = [f"C{i}" for i in range(n_crit)]
    dms = [f"D{i}" for i in range(n_dm)]

    def weight():
        lo = rng.random()
        hi = lo + (1.0 - lo) * rng.random()
        return hi if crisp else [lo, hi]

    def triple():
        a, b = rng.random(), rng.random()
        a, b = a / (1.0 + a + b), b / (1.0 + a + b)
        return [a, b, 1.0 - a - b]

    return json.dumps({
        "schema_version": "1",
        "alternatives": alts,
        "criteria": crits,
        "decision_makers": [{"name": d, "weight": weight(), "criterion_weights": [weight() for _ in crits]} for d in dms],
        "ratings": {d: {a: {c: triple() for c in crits} for a in alts} for d in dms},
    }).encode()


# every rating sums to 1; their fusion over the criteria is total conflict
CONFLICT = json.dumps({
    "schema_version": "1",
    "alternatives": ["A"],
    "criteria": ["C1", "C2"],
    "decision_makers": [{"name": "D", "weight": 1, "criterion_weights": [1, 1]}],
    "ratings": {"D": {"A": {"C1": [1, 0, 0], "C2": [0, 1, 0]}}},
})


@pytest.fixture
def collector():
    """Puts the collector back in the state the test found it in."""
    enabled = gc.isenabled()
    yield
    (gc.enable if enabled else gc.disable)()


def backstop(monkeypatch):
    # nothing a document holds reaches the backstop today: fake an error from
    # the builder the loader hands its checked fields to
    def refuse(*fields):
        raise InvalidWeight("refused")

    monkeypatch.setattr(loading, "_loaded_problem", refuse)
    load_problem(document(1, 1, 1))


EXITS = {
    "load": (lambda mp: load_problem(document(2, 3, 4)), None),
    "parse-error": (lambda mp: load_problem('{"schema_version": '), ParseError),
    "schema-error": (lambda mp: load_problem("{}"), SchemaError),
    "validation-error": (lambda mp: load_problem(CONFLICT.replace("[1, 0, 0]", "[0.5, 0, 0]")), ValidationError),
    "all-zero-weights": (lambda mp: load_problem(CONFLICT.replace('"weight": 1', '"weight": 0')), ValidationError),
    "backstop": (backstop, ValidationError),
    "rank": (lambda mp: rank_alternatives(load_problem(document(2, 3, 4))), None),
    "rank-conflict": (lambda mp: rank_alternatives(load_problem(CONFLICT)), TotalConflict),
    "trace": (lambda mp: rank_alternatives(load_problem(document(2, 3, 4))).cells, None),
    "ratings-view": (lambda mp: load_problem(document(2, 3, 4)).ratings, None),
    "emit": (lambda mp: emit_report(rank_alternatives(load_problem(document(2, 3, 4))), FULL_TRACE, JSON_FORMAT), None),
    "emit-bad-mode": (lambda mp: emit_report(rank_alternatives(load_problem(document(1, 1, 1))), "trace", HUMAN_TABLE),
                      ValueError),
}


@pytest.mark.parametrize("enabled", [True, False], ids=["caller-enabled", "caller-disabled"])
@pytest.mark.parametrize("name", sorted(EXITS))
def test_collector_state_is_restored(collector, monkeypatch, name, enabled):
    run, error = EXITS[name]
    (gc.enable if enabled else gc.disable)()
    if error is None:
        run(monkeypatch)
    else:
        with pytest.raises(error):
            run(monkeypatch)
    assert gc.isenabled() is enabled


@pytest.mark.parametrize("crisp", [False, True], ids=["interval", "all-crisp"])
def test_no_collection_runs_while_loading_ranking_or_tracing(collector, crisp):
    source = document(5, 500, 20, crisp=crisp)  # 50,000 rating cells
    collections = []

    def count(phase, info):
        if phase == "start":
            collections.append(info["generation"])

    def collections_during(call):
        # an empty young generation, so that the few allocations made
        # outside the pause cannot start a collection of their own
        gc.collect()
        del collections[:]
        gc.callbacks.append(count)
        try:
            result = call()
        finally:
            gc.callbacks.remove(count)
        return result, list(collections)

    gc.enable()
    problem, during_load = collections_during(lambda: load_problem(source))
    report, during_rank = collections_during(lambda: rank_alternatives(problem))
    cells, during_trace = collections_during(lambda: report.cells)
    ratings, during_view = collections_during(lambda: problem.ratings)
    # a full trace renders its cells row by row from the discounts, not from `cells`
    human, during_human = collections_during(lambda: emit_report(report, FULL_TRACE, HUMAN_TABLE))
    json_, during_json = collections_during(lambda: emit_report(report, FULL_TRACE, JSON_FORMAT))
    assert len(cells) * len(cells[0]) * len(cells[0][0]) == 50_000
    assert len(ratings) * len(ratings[0]) * len(ratings[0][0]) == 50_000
    assert human.count(b" / ") == 2 * 50_000 + 5 * 500
    assert len(json.loads(json_)["cells"]["D4"]["A499"]) == 20
    assert (during_load, during_rank, during_trace, during_view) == ([], [], [], [])
    assert (during_human, during_json) == ([], [])
    assert gc.isenabled()
    # crisp weights take the path where each interval BPA's two parts are one
    assert all(left is right for left, right in report.final) is crisp
