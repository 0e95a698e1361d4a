"""The benchmark's tracer must find every package name it wraps.

``python3 benchmarks/run.py --trace 1`` replaces functions of the package
with timing wrappers from ``benchmarks/spans.py``. Installing those wrappers
here makes removing or renaming a wrapped name fail the test suite instead
of a traced benchmark run.
"""

import importlib.util
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
    tracer = spans.Tracer()
    try:
        spans.install(tracer, intervalfusion)
        report = intervalfusion.rank_alternatives(intervalfusion.load_problem(bundled_dataset_bytes()))
    finally:
        tracer.uninstall()
    assert report.bets == supplier_report.bets
    assert tracer.calls["loading.load"] == 1
    assert tracer.calls["pipeline.rank"] == 1
    assert (intervalfusion.load_problem, intervalfusion.rank_alternatives) == entry_points
