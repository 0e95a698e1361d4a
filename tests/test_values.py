"""The contract of the four value types: each compares and hashes by its
fields, refuses assignment, survives pickle and deepcopy, and the CLI
imports without dataclasses, inspect or typing."""

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from intervalfusion import Interval, MassFunction, bundled_dataset_bytes, load_problem, rank_alternatives

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture(params=["Interval", "MassFunction", "DecisionProblem", "RankingReport", "traced-RankingReport"])
def value_and_copy(request, supplier_problem):
    """A value of each type and an equal one built apart from it. The traced
    report has had its trace read."""
    if request.param == "Interval":
        return Interval(0.2, 0.35), Interval(0.2, 0.35)
    if request.param == "MassFunction":
        return MassFunction((0.6, 0.2, 0.2)), MassFunction((0.6, 0.2, 0.2))
    if request.param == "DecisionProblem":
        return supplier_problem, load_problem(bundled_dataset_bytes())
    report = rank_alternatives(supplier_problem)
    if request.param == "traced-RankingReport":
        assert report.cells
    return report, rank_alternatives(load_problem(bundled_dataset_bytes()))


def test_equal_values_are_equal_and_hash_alike(value_and_copy):
    value, twin = value_and_copy
    assert value is not twin
    assert value == twin and not value != twin
    assert hash(value) == hash(twin)
    assert value != object()


def test_fields_cannot_be_assigned_or_deleted(value_and_copy):
    value, _ = value_and_copy
    field = {"Interval": "lo", "MassFunction": "masses", "DecisionProblem": "ratings"}.get(type(value).__name__, "bets")
    before = getattr(value, field)
    with pytest.raises(AttributeError, match=f"'{field}'"):
        setattr(value, field, None)
    with pytest.raises(AttributeError):
        delattr(value, field)
    assert getattr(value, field) is before


@pytest.mark.parametrize("round_trip", [lambda v: pickle.loads(pickle.dumps(v)), copy.deepcopy], ids=["pickle", "deepcopy"])
def test_round_trip_compares_equal(value_and_copy, round_trip):
    value, _ = value_and_copy
    again = round_trip(value)
    assert type(again) is type(value)
    assert again == value and hash(again) == hash(value)
    if hasattr(value, "ranking"):
        assert again.cells == value.cells


def test_repr_names_the_fields():
    assert repr(Interval(0.2, 0.35)) == "Interval(lo=0.2, hi=0.35)"
    assert repr(MassFunction((0.6, 0.2, 0.2))) == "MassFunction(masses=(0.6, 0.2, 0.2))"


def test_cli_imports_no_dataclasses_inspect_or_typing():
    # -S: no site .pth file may import any of them first
    code = "import sys, intervalfusion.cli; print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))"
    result = subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert (result.returncode, result.stderr, result.stdout) == (0, "", "[]\n")
