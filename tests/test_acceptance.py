"""Acceptance criteria, one test per criterion.

Expected values marked "printed" are the values published with the source
dataset; "recomputed" values come from the independent exhaustive
recomputation in ``tests/golden/regen.py`` (frozen into
``tests/golden/supplier_selection_expected.json``). Where the published
tables contain typos, the recomputed value governs and the discrepancy is
documented in ``PRINTED_TABLE_TYPOS`` below; the test proves that list is
exact (clean rows match within tolerance, listed rows do not).

A pass/fail line per criterion is printed in the pytest terminal summary
(see ``conftest.py``).
"""

import json
import random

import pytest

from intervalfusion import load_problem
from intervalfusion.errors import ParseError, SchemaError, ValidationError
from intervalfusion.loading import bundled_dataset_bytes

import test_properties

DMS = ("DM1", "DM2", "DM3")
SUPPLIERS = tuple(f"Supplier{i}" for i in range(1, 7))
CRITERIA = ("C1", "C2", "C3", "C4")

# Published normalized criterion weights (division by the pooled group
# maximum 0.70). DM2/C1's upper bound prints as 0.6428 where full precision
# gives 0.45/0.70 = 0.64286; still within 1e-4.
PRINTED_NORMALIZED_CRITERION_WEIGHTS = {
    "DM1": [(0.2857, 0.5), (0.4286, 0.7857), (0.0714, 0.4286), (0.3571, 0.7143)],
    "DM2": [(0.3571, 0.6428), (0.2857, 0.7857), (0.0714, 0.4286), (0.2857, 0.8571)],
    "DM3": [(0.2857, 0.7857), (0.2857, 1.0), (0.1429, 0.5714), (0.2857, 0.8571)],
}

# Published normalized decision-maker weights (division by 0.95). The
# publication prints DM1's upper bound as 0.4739, but 0.45/0.95 = 0.47368;
# 0.4739 cannot be the rounding of any quotient here and its own later
# arithmetic sits between the two, so the recomputed value governs (printed
# typos are not replicated).
PRINTED_NORMALIZED_DM_WEIGHTS = [
    (0.2105, 0.45 / 0.95),  # printed upper bound: 0.4739 (typo for 0.4737)
    (0.3684, 0.5789),
    (0.7368, 1.0),
]

# Published per-decision-maker fusion tables (left part, right part).
PRINTED_PER_DM_FUSION = {
    ("DM1", "Supplier1"): ((0.5133, 0.0980, 0.3887), (0.8009, 0.0987, 0.1004)),
    ("DM1", "Supplier2"): ((0.4596, 0.1772, 0.3632), (0.6881, 0.2353, 0.0766)),
    ("DM1", "Supplier3"): ((0.4003, 0.1895, 0.4102), (0.6817, 0.2520, 0.0663)),
    ("DM1", "Supplier4"): ((0.4938, 0.1246, 0.3815), (0.7447, 0.1782, 0.0771)),
    ("DM1", "Supplier5"): ((0.0, 0.5804, 0.4196), (0.0, 0.8812, 0.1188)),
    ("DM1", "Supplier6"): ((0.0734, 0.5131, 0.4135), (0.1203, 0.7369, 0.1428)),
    ("DM2", "Supplier1"): ((0.4502, 0.1128, 0.4370), (0.8108, 0.1268, 0.0624)),
    ("DM2", "Supplier2"): ((0.3929, 0.1800, 0.4271), (0.6438, 0.3116, 0.0446)),
    ("DM2", "Supplier3"): ((0.3920, 0.2114, 0.3966), (0.7549, 0.1995, 0.0456)),
    ("DM2", "Supplier4"): ((0.4502, 0.1086, 0.4412), (0.7774, 0.1821, 0.0405)),
    ("DM2", "Supplier5"): ((0.0343, 0.5015, 0.4642), (0.0387, 0.8905, 0.0708)),
    ("DM2", "Supplier6"): ((0.0854, 0.4518, 0.4628), (0.0996, 0.7475, 0.1529)),
    ("DM3", "Supplier1"): ((0.4722, 0.0699, 0.4579), (0.9206, 0.0456, 0.0338)),
    ("DM3", "Supplier2"): ((0.4015, 0.1829, 0.4155), (0.8124, 0.1506, 0.0370)),
    ("DM3", "Supplier3"): ((0.4015, 0.1829, 0.4155), (0.7903, 0.2097, 0.0)),
    ("DM3", "Supplier4"): ((0.5034, 0.0221, 0.4746), (0.9460, 0.0131, 0.0409)),
    ("DM3", "Supplier5"): ((0.0500, 0.4868, 0.4631), (0.0309, 0.9357, 0.0334)),
    ("DM3", "Supplier6"): ((0.1051, 0.4620, 0.4833), (0.0982, 0.8494, 0.0524)),
}

# Rows of the published fusion tables that disagree with independent
# recomputation beyond the 2e-3 print-rounding tolerance. Causes traced in
# the published intermediate tables:
#  - DM1/Supplier3 left: the C2 discount used 0.2857 as lower weight where
#    0.30/0.70 = 0.4286 belongs (propagated into the printed fusion row).
#  - DM1/Supplier4 right: the published C4 cell prints [0, 0] for the
#    uncommitted mass where the complement relation forces 0.2856.
#  - DM2/Supplier6 right: published row is inconsistent with its own inputs.
#  - DM3/Supplier2 left: duplicates the DM3/Supplier3 left row verbatim.
#  - DM3/Supplier6 left: printed row sums to 1.0504, not a valid BPA.
# The published decision-maker-level fusion table also carries one slip: the
# "fusion result" right part (0.8849, 0.1017, 0.0135) is Supplier2's final
# right part; recomputation for Supplier1 gives (0.9696, 0.0201, 0.0103),
# matching the published per-supplier final table.
PRINTED_TABLE_TYPOS = {
    ("DM1", "Supplier3", "left"),
    ("DM1", "Supplier4", "right"),
    ("DM2", "Supplier6", "right"),
    ("DM3", "Supplier2", "left"),
    ("DM3", "Supplier6", "left"),
}

PRINTED_COLLAPSED = {
    "Supplier1": (0.9833, 0.0119, 0.0048),
    "Supplier2": (0.9177, 0.0752, 0.0072),
    "Supplier3": (0.9129, 0.0873, 0.0),
    "Supplier4": (0.9879, 0.0063, 0.0058),
    "Supplier5": (0.0050, 0.9910, 0.0042),
    "Supplier6": (0.0287, 0.9625, 0.0090),
}

PRINTED_BETS = {
    "Supplier1": 0.9857,
    "Supplier2": 0.9213,
    "Supplier3": 0.9129,
    "Supplier4": 0.9908,
    "Supplier5": 0.0071,
    "Supplier6": 0.0332,
}

EXPECTED_RANKING = ["Supplier4", "Supplier1", "Supplier2", "Supplier3", "Supplier6", "Supplier5"]


def test_criterion_1_weight_normalization(supplier_report):
    report = supplier_report
    for d, dm in enumerate(DMS):
        for c in range(4):
            lo, hi = PRINTED_NORMALIZED_CRITERION_WEIGHTS[dm][c]
            got = report.normalized_criterion_weights[d][c]
            assert got.lo == pytest.approx(lo, abs=1e-4), (dm, CRITERIA[c])
            assert got.hi == pytest.approx(hi, abs=1e-4), (dm, CRITERIA[c])
    for d, (lo, hi) in enumerate(PRINTED_NORMALIZED_DM_WEIGHTS):
        got = report.normalized_dm_weights[d]
        assert got.lo == pytest.approx(lo, abs=1e-4), DMS[d]
        assert got.hi == pytest.approx(hi, abs=1e-4), DMS[d]


def test_criterion_2_discounting(supplier_report):
    left, right = supplier_report.cells[0][0][0]  # DM1 / Supplier1 / C1
    assert left == pytest.approx((0.1714, 0.0571, 0.7715), abs=1e-4)
    assert right == pytest.approx((0.3, 0.1, 0.6), abs=1e-4)


def test_criterion_3_per_dm_fusion(supplier_report, golden):
    report = supplier_report
    # every row matches the recomputed oracle within 2e-3 (in fact far tighter)
    for d, dm in enumerate(DMS):
        for a, supplier in enumerate(SUPPLIERS):
            left, right = report.fused_per_dm[d][a]
            oracle = golden["per_dm_fused"][dm][supplier]
            assert left == pytest.approx(oracle["left"], abs=2e-3), (dm, supplier)
            assert right == pytest.approx(oracle["right"], abs=2e-3), (dm, supplier)
    # the printed tables agree with the oracle except exactly the documented typos
    for d, dm in enumerate(DMS):
        for a, supplier in enumerate(SUPPLIERS):
            printed_left, printed_right = PRINTED_PER_DM_FUSION[(dm, supplier)]
            oracle = golden["per_dm_fused"][dm][supplier]
            for side, printed in (("left", printed_left), ("right", printed_right)):
                deviation = max(abs(p - o) for p, o in zip(printed, oracle[side]))
                if (dm, supplier, side) in PRINTED_TABLE_TYPOS:
                    assert deviation > 2e-3, f"{(dm, supplier, side)} no longer deviates"
                else:
                    assert deviation <= 2e-3, f"{(dm, supplier, side)} deviates by {deviation}"
    # documented slip in the decision-maker-level fusion table: the printed
    # Supplier1 right part belongs to Supplier2
    _, s1_right = report.final[0]
    _, s2_right = report.final[1]
    assert s1_right == pytest.approx((0.9696, 0.0201, 0.0103), abs=2e-3)
    assert s2_right == pytest.approx((0.8849, 0.1017, 0.0135), abs=2e-3)


def test_criterion_4_final_bpas_and_ranking(supplier_report):
    report = supplier_report
    for a, supplier in enumerate(SUPPLIERS):
        assert report.collapsed[a] == pytest.approx(
            PRINTED_COLLAPSED[supplier], abs=2e-3
        ), supplier
        assert report.bets[a] == pytest.approx(PRINTED_BETS[supplier], abs=2e-3), supplier
    assert list(report.ranking) == EXPECTED_RANKING
    # ranking by the left part alone and by the right part alone coincide
    # with the collapsed ranking on this dataset
    def order_by(part):
        def bet(pair):
            triple = pair[part]
            return triple[0] + triple[2] / 2.0

        ranked = sorted(
            range(len(SUPPLIERS)), key=lambda i: -bet(report.final[i])
        )
        return [SUPPLIERS[i] for i in ranked]

    assert order_by(0) == EXPECTED_RANKING  # left parts
    assert order_by(1) == EXPECTED_RANKING  # right parts


def test_criterion_5_property_suites():
    # each suite runs >= 200 randomized cases, once per session: its own item
    # in tests/test_properties.py reports the same outcome without a rerun
    test_properties.test_combine_commutative()
    test_properties.test_combine_associative()
    test_properties.test_vacuous_neutral_exact()
    test_properties.test_pignistic_is_probability_vector()
    test_properties.test_discount_identities_exact()
    test_properties.test_normalization_scale_invariant()
    test_properties.test_combine_matches_brute_force_oracle()
    test_properties.test_degenerate_weights_match_crisp_pipeline()


def test_criterion_6_loader_fuzz():
    rng = random.Random(20260809)
    valid = bundled_dataset_bytes()
    compact = json.dumps(json.loads(valid), separators=(",", ":")).encode()
    allowed = (ParseError, SchemaError, ValidationError)
    cases = 0
    rejected = 0

    def check(data: bytes):
        nonlocal cases, rejected
        cases += 1
        try:
            load_problem(data)
        except allowed as exc:
            rejected += 1
            assert type(exc).__name__, "diagnostic class must be named"
        # any other exception propagates and fails the run

    for _ in range(70_000):
        length = rng.randrange(0, 120)
        check(bytes(rng.randrange(256) for _ in range(length)))

    mutators = ("flip", "truncate", "insert", "digit")
    for _ in range(30_000):
        doc = bytearray(compact)
        kind = rng.choice(mutators)
        pos = rng.randrange(len(doc))
        if kind == "flip":
            doc[pos] = rng.randrange(256)
        elif kind == "truncate":
            del doc[pos:]
        elif kind == "insert":
            doc[pos:pos] = bytes(rng.randrange(256) for _ in range(rng.randrange(1, 4)))
        else:
            doc[pos : pos + 1] = str(rng.randrange(10)).encode()
        check(bytes(doc))

    assert cases == 100_000
    assert rejected > 0
