"""The benchmark's tracer must find every package name it wraps.

``python3 benchmarks/run.py --trace 1`` replaces functions of the package
with timing wrappers from ``benchmarks/spans.py``. Installing those wrappers
here makes removing or renaming a wrapped name fail the test suite instead
of a traced benchmark run.
"""

import importlib.util
import json
from pathlib import Path

import intervalfusion
from intervalfusion.loading import bundled_dataset_bytes

SPANS = Path(__file__).resolve().parent.parent / "benchmarks" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("benchmark_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_the_package_and_restores_it(supplier_report):
    spans = load_spans()
    entry_points = (intervalfusion.load_problem, intervalfusion.rank_alternatives)
    post_init = intervalfusion.MassFunction.__post_init__
    tracer = spans.Tracer()
    try:
        spans.install(tracer, intervalfusion)
        report = intervalfusion.rank_alternatives(intervalfusion.load_problem(bundled_dataset_bytes()))
        intervalfusion.MassFunction((0.6, 0.2, 0.2))  # a direct build runs the wrapped __post_init__
    finally:
        tracer.uninstall()
    assert report.bets == supplier_report.bets
    assert tracer.calls["loading.load"] == 1
    assert tracer.calls["pipeline.rank"] == 1
    assert tracer.calls["evidence.masses_built.other"] == 1
    assert (intervalfusion.load_problem, intervalfusion.rank_alternatives) == entry_points
    assert intervalfusion.MassFunction.__post_init__ is post_init


def test_tracer_times_every_stage_of_a_rank(supplier_problem):
    # the bundled problem is 3 decision makers x 6 alternatives x 4 criteria:
    # one discount and one fusion per (decision maker, alternative) row, then
    # per alternative one discount and fusion across decision makers, one
    # collapse and one bet; the trace tables are not read
    spans = load_spans()
    tracer = spans.Tracer()
    try:
        spans.install(tracer, intervalfusion)
        intervalfusion.rank_alternatives(supplier_problem)
    finally:
        tracer.uninstall()
    stages = ("discount", "fuse_dm", "discount_cross", "fuse_cross", "collapse", "bet")
    assert {s: tracer.calls["pipeline." + s] for s in stages} == {
        "discount": 18, "fuse_dm": 18, "discount_cross": 6, "fuse_cross": 6, "collapse": 6, "bet": 6,
    }


def test_tracer_counts_one_cut_per_term_reference():
    # three term references, the same tfn term twice; crisp and interval
    # weights are not terms
    tfn_term = {"term": "High (H)", "scale": "kaufmann-tfn"}
    doc = json.dumps({
        "schema_version": "1",
        "alternatives": ["A1"],
        "criteria": ["C1", "C2"],
        "decision_makers": [
            {"name": "DM1", "weight": tfn_term,
             "criterion_weights": [{"term": "Low (L)", "scale": "interval-default"}, 0.5]},
            {"name": "DM2", "weight": [0.2, 0.4], "criterion_weights": [tfn_term, [0.1, 0.3]]},
        ],
        "ratings": {dm: {"A1": {"C1": [0.6, 0.2, 0.2], "C2": [0.5, 0.3, 0.2]}} for dm in ("DM1", "DM2")},
    })
    spans = load_spans()
    tracer = spans.Tracer()
    try:
        spans.install(tracer, intervalfusion)
        problem = intervalfusion.load_problem(doc, alpha=0.5)
    finally:
        tracer.uninstall()
    assert tracer.calls["fuzzy.as_interval"] == 3
    assert problem == intervalfusion.load_problem(doc, alpha=0.5)
