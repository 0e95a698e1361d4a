"""The benchmark's output gates run in the test suite.

Before every run, ``python3 benchmarks/run.py`` checks the bundled dataset
against ``tests/golden/supplier_selection_expected.json`` and each
workload's fixed gate documents against ``benchmarks/digests.json``; the
digests cover the loaded cells of the ``ingest`` documents as well as the
bets. Running the same checks here makes a loaded or ranked bit that moves,
or a name the gates read that goes away, fail the test suite instead of a
benchmark run.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

import intervalfusion

ROOT = Path(__file__).resolve().parent.parent
BENCHMARKS = ROOT / "benchmarks"


@pytest.fixture(scope="module")
def bench_run():
    # run.py imports its sibling modules (docgen, oracle, ops) by name
    sys.path.insert(0, str(BENCHMARKS))
    try:
        spec = importlib.util.spec_from_file_location("benchmark_run", BENCHMARKS / "run.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module  # its dataclasses look their module up
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(BENCHMARKS))
    return module


def test_golden_gate(bench_run):
    bench_run.check_golden(intervalfusion, ROOT)


def test_digest_gates(bench_run):
    failures = []
    for workload in bench_run.WORKLOADS:
        try:
            bench_run.check_digest(intervalfusion, workload)
        except bench_run.GateFailure as exc:
            failures.append(str(exc))
    assert failures == []
