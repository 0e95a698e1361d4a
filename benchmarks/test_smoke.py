"""Smoke tests of the benchmark itself, at tiny sizes.

    python3 -m pytest -q benchmarks/test_smoke.py
"""

import json
import math
import sys
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import docgen  # noqa: E402
import oracle  # noqa: E402
from run import WORKLOADS, Context, Expected, Tally, _in_process_op, cli_outcome  # noqa: E402

ROOT = HERE.parent


def test_generator_is_deterministic_per_seed():
    for workload in WORKLOADS:
        first = [doc.data for doc in docgen.make_docs(workload, 7, "tiny")]
        again = [doc.data for doc in docgen.make_docs(workload, 7, "tiny")]
        other = [doc.data for doc in docgen.make_docs(workload, 8, "tiny")]
        assert first == again, workload
        assert first != other, workload


def test_oracle_reproduces_the_golden_bets():
    body = json.loads((ROOT / "src" / "intervalfusion" / "data" / "supplier-selection.json").read_text())
    golden = json.loads((ROOT / "tests" / "golden" / "supplier_selection_expected.json").read_text())
    for alt, bet in zip(body["alternatives"], oracle.bets(body)):
        assert abs(bet - golden["bets"][alt]) <= oracle.TOLERANCE, alt


def _fake_context(doc, bets, ranking, expected):
    """A one-document batch_rank context whose 'program' returns the given bets."""
    report = SimpleNamespace(bets=tuple(bets), ranking=tuple(ranking))
    api = SimpleNamespace(
        load_problem=lambda data, alpha: "problem",
        rank_alternatives=lambda problem, criterion_normalization: report,
        emit_report=lambda report: b"table\n",
        IntervalFusionError=Exception,
    )
    return Context("batch_rank", ROOT, ROOT, api, [doc], [expected], [None], {})


def test_gate_rejects_a_bet_one_ulp_off():
    doc = docgen.make_docs("batch_rank", 7, "tiny")[0]
    bets = oracle.bets(doc.body)
    ranking = sorted(doc.body["alternatives"], key=lambda alt: -bets[doc.body["alternatives"].index(alt)])
    expected = Expected(oracle.ranking_fingerprint(bets, ranking), b"table\n")
    perturbed = [math.nextafter(bets[0], 1.0)] + bets[1:]
    assert oracle.digest([expected.fingerprint]) != oracle.digest([oracle.ranking_fingerprint(perturbed, ranking)])

    same, off = Tally(), Tally()
    _in_process_op(_fake_context(doc, bets, ranking, expected), 0, doc, same, None)
    _in_process_op(_fake_context(doc, perturbed, ranking, expected), 0, doc, off, None)
    assert (same.ok, same.failed) == (1, 0)
    assert (off.ok, off.failed) == (0, 1)


def test_unexpected_outcome_of_a_malformed_document_counts_as_failed():
    malformed = next(d for d in docgen.make_docs("cli_small", 7, "tiny") if d.expect == docgen.REJECT)
    tally = Tally()
    for returncode, stdout, stderr in (
        (1, b"", b"error (ParseError): line 1, column 5: Expecting value\n"),  # as required
        (0, b"valid: 2 decision makers\n", b""),  # accepted instead of rejected
        (1, b"", b"Traceback (most recent call last):\nValueError: boom\n"),  # crashed
    ):
        outcome, _ = cli_outcome(malformed, returncode, stdout, stderr, Expected())
        tally.count(malformed, outcome)
        tally.latencies.append(0.1)
    assert (tally.ok, tally.known_defects, tally.failed) == (1, 0, 2)
    assert tally.ok / tally.attempted == 1 / 3


def test_known_defects_are_told_apart_from_fixes_and_new_failures():
    doc = next(d for d in docgen.make_docs("cli_small", 7, "tiny") if d.meta.get("kind") == "long_integer")
    seed_behaviour = b"Traceback (most recent call last):\nValueError: Exceeds the limit (4300 digits)\n"
    assert cli_outcome(doc, 1, b"", seed_behaviour, Expected())[0] == "known"
    assert cli_outcome(doc, 1, b"", b"error (ParseError): integer too long\n", Expected())[0] == "ok"
    assert cli_outcome(doc, 0, b"report\n", b"", Expected())[0] == "failed"
