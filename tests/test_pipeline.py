import copy
import gc
import json
import math
import pickle
import random

import pytest

from intervalfusion import (
    FULL_TRACE,
    HUMAN_TABLE,
    JSON_FORMAT,
    SUMMARY,
    DecisionProblem,
    Interval,
    MassFunction,
    PER_DM,
    POOLED,
    bundled_dataset_bytes,
    emit_report,
    load_problem,
    rank_alternatives,
)
from intervalfusion.errors import (
    AllZeroWeights,
    SchemaError,
    TotalConflict,
    ValidationError,
)
from intervalfusion import evidence, pipeline
from intervalfusion.pipeline import (
    bet_ideal,
    collapse_interval_bpa,
    discount_interval_bpa,
    discount_to_interval_bpa,
    fuse_interval_bpas,
    normalize_weight_group,
)

from per_object import per_object_rank
from reference import brute_pignistic
from test_properties import REPORT_INVARIANTS, TABLES, by_labels, trace_triples

VACUOUS = (0.0, 0.0, 1.0)


def triple(a, b, c):
    return MassFunction((a, b, c))


def settled(a, b, c):
    """The triple a MassFunction stores for (a, b, c), as the stages take it."""
    return triple(a, b, c).masses


def assert_triple(t, expected, abs=1e-9):
    assert t == pytest.approx(expected, abs=abs)


class TestNormalizeWeightGroup:
    def test_pooled_criterion_weights(self, golden):
        raw = {
            "DM1": [(0.20, 0.35), (0.30, 0.55), (0.05, 0.30), (0.25, 0.50)],
            "DM2": [(0.25, 0.45), (0.20, 0.55), (0.05, 0.30), (0.20, 0.60)],
            "DM3": [(0.20, 0.55), (0.20, 0.70), (0.10, 0.40), (0.20, 0.60)],
        }
        flat = [Interval(*w) for ws in raw.values() for w in ws]
        normalized = normalize_weight_group(flat)
        expected = [
            pair
            for dm in ("DM1", "DM2", "DM3")
            for pair in golden["normalized_criterion_weights"][dm]
        ]
        for got, (lo, hi) in zip(normalized, expected):
            assert got.lo == pytest.approx(lo, abs=1e-12)
            assert got.hi == pytest.approx(hi, abs=1e-12)
        # the group maximum 0.70 maps to exactly 1
        assert max(w.hi for w in normalized) == 1.0

    def test_dm_weights(self):
        got = normalize_weight_group(
            [Interval(0.20, 0.45), Interval(0.35, 0.55), Interval(0.70, 0.95)]
        )
        expected = [(0.2105, 0.4737), (0.3684, 0.5789), (0.7368, 1.0)]
        for iv, (lo, hi) in zip(got, expected):
            assert iv.lo == pytest.approx(lo, abs=1e-4)
            assert iv.hi == pytest.approx(hi, abs=1e-4)

    def test_single_weight_self_normalizes(self):
        (got,) = normalize_weight_group([Interval(0.4, 0.4)])
        assert got == Interval(1.0, 1.0)

    def test_all_zero_rejected(self):
        with pytest.raises(AllZeroWeights):
            normalize_weight_group([Interval(0, 0), Interval(0, 0)])

    # the stage checks only the all-zero group a per-dm split can make: an
    # empty or negative group is refused where the problem is made

    def test_empty_rejected(self):
        for criteria, dms, message in [
            ([], [{"name": "DM1", "weight": 1, "criterion_weights": []}], "criteria: must not be empty"),
            (["C1"], [], "decision_makers: must not be empty"),
        ]:
            doc = json.dumps({"schema_version": "1", "alternatives": ["A1"], "criteria": criteria,
                              "decision_makers": dms, "ratings": {}})
            with pytest.raises(SchemaError) as err:
                load_problem(doc)
            assert str(err.value) == message

    def test_negative_rejected(self):
        for weight, criterion_weight, where in [
            ([-0.1, 0.5], [0.2, 0.4], "decision_makers[0].weight"),
            ([0.5, 1.0], [-0.1, 0.5], "decision_makers[0].criterion_weights[0]"),
        ]:
            doc = json.dumps({
                "schema_version": "1", "alternatives": ["A1"], "criteria": ["C1"],
                "decision_makers": [{"name": "DM1", "weight": weight, "criterion_weights": [criterion_weight]}],
                "ratings": {"DM1": {"A1": {"C1": [0.6, 0.2, 0.2]}}},
            })
            with pytest.raises(ValidationError) as err:
                load_problem(doc)
            assert str(err.value) == f"{where}: weight must be non-negative, got [-0.1, 0.5]"


class TestDiscountToIntervalBPA:
    # the stage returns a row's masses as one flat tuple: for each source, its
    # left triple and then its right triple
    def test_is_the_interval_bpa_discount_under_a_row_name(self):
        # a rating t enters as the interval BPA (t, t)
        assert pipeline.discount_to_interval_bpa is discount_interval_bpa is evidence.discount

    def test_worked_cell(self):
        m = settled(0.60, 0.20, 0.20)
        masses = discount_to_interval_bpa([m], [0.2857], [0.5])
        assert len(masses) == 6
        assert_triple(masses[:3], (0.1714, 0.0571, 0.7715), abs=1e-4)
        assert_triple(masses[3:], (0.3, 0.1, 0.6), abs=1e-4)

    def test_full_reliability_is_identity_exact(self):
        m = settled(0.60, 0.20, 0.20)
        assert discount_to_interval_bpa([m], [1.0], [1.0]) == m + m

    def test_zero_weight_is_vacuous_exact(self):
        m = settled(0.60, 0.20, 0.20)
        assert discount_to_interval_bpa([m], [0.0], [0.0]) == VACUOUS + VACUOUS

    def test_ordering_of_fresh_parts(self):
        m = settled(0.6, 0.2, 0.2)
        masses = discount_to_interval_bpa([m], [0.3], [0.8])
        lt, rt = masses[:3], masses[3:]
        assert lt[0] <= rt[0]
        assert lt[1] <= rt[1]

    def test_complement_relation_exact(self):
        m = settled(0.6429, 0.0714, 0.2857)
        masses = discount_to_interval_bpa([m], [0.25], [0.75])
        for a, b, c in (masses[:3], masses[3:]):
            assert c == pytest.approx(1.0 - a - b, abs=1e-12)


class TestDiscountIntervalBPA:
    def test_dm_level_row(self):
        # a decision maker's fusion, its left part by the weight's lower
        # bound and its right part by the upper bound
        masses = discount_interval_bpa([settled(0.5133, 0.0980, 0.3887)], [0.2105], [0.4739])
        assert_triple(masses[:3], (0.1080, 0.0206, 0.8714), abs=2e-4)
        assert_triple(masses[3:], (0.2432, 0.0464, 0.7103), abs=2e-4)

    def test_identity(self):
        # exact identity requires a complement-consistent triple (c == 1 - a - b
        # bitwise), which is how every triple produced by the pipeline is built
        t = settled(0.5133, 0.0980, 1.0 - 0.5133 - 0.0980)
        assert discount_interval_bpa([t], [1.0], [1.0]) == t + t

    def test_zero_reliability(self):
        got = discount_interval_bpa([settled(0.5133, 0.0980, 0.3887)], [0.0], [0.0])
        assert got == VACUOUS + VACUOUS


class TestFuseAndCollapse:
    def test_fuse_across_decision_makers(self):
        # Supplier1's per-decision-maker fusions, each discounted by its
        # decision maker's normalized weight as the fold reaches it
        lefts = [settled(0.5133, 0.0980, 0.3887), settled(0.4503, 0.1129, 0.4368), settled(0.4721, 0.0700, 0.4579)]
        rights = [settled(0.8009, 0.0987, 0.1004), settled(0.8108, 0.1268, 0.0624), settled(0.9206, 0.0456, 0.0338)]
        left, right = fuse_interval_bpas(lefts, rights, [0.2105, 0.3684, 0.7368], [0.4737, 0.5789, 1.0])
        assert_triple(left, (0.4950, 0.0733, 0.4317), abs=2e-3)
        assert_triple(right, (0.9696, 0.0201, 0.0103), abs=2e-3)

    def test_fuse_single_is_identity(self):
        # at full reliability, exact for complement-consistent parts (c == 1 - a - b bitwise)
        left, right = settled(0.5, 0.2, 1.0 - 0.5 - 0.2), settled(0.7, 0.1, 1.0 - 0.7 - 0.1)
        assert fuse_interval_bpas([left], [right], [1.0], [1.0]) == (left, right)

    def test_collapse_final_row(self):
        got = collapse_interval_bpa((settled(0.4950, 0.0733, 0.4317), settled(0.9696, 0.0201, 0.0103)))
        assert_triple(got, (0.9833, 0.0119, 0.0048), abs=2e-3)

    def test_collapse_is_self_reinforcing(self):
        m = triple(0.6, 0.2, 0.2)
        got = collapse_interval_bpa((m.masses, m.masses))
        assert got == m.combine(m).masses
        assert got != m.masses

    def test_collapse_with_vacuous_left(self):
        m = settled(0.6, 0.2, 0.2)
        assert collapse_interval_bpa((VACUOUS, m)) == m

    def test_collapse_total_conflict(self):
        with pytest.raises(TotalConflict):
            collapse_interval_bpa(((1.0, 0.0, 0.0), (0.0, 1.0, 0.0)))


def build_problem(dm_weights, criterion_weights, ratings):
    """A problem built directly, as a fixture: each weight pair as an
    ``Interval`` and each rating as the triple a ``MassFunction`` settles it to."""
    n_dm = len(dm_weights)
    n_alt = len(ratings[0])
    n_crit = len(criterion_weights[0])
    return DecisionProblem(
        alternatives=tuple(f"A{i+1}" for i in range(n_alt)),
        criteria=tuple(f"C{i+1}" for i in range(n_crit)),
        decision_makers=tuple(f"DM{i+1}" for i in range(n_dm)),
        dm_weights=tuple(Interval(*w) for w in dm_weights),
        criterion_weights=tuple(tuple(Interval(*w) for w in ws) for ws in criterion_weights),
        ratings=tuple(tuple(tuple(settled(*r) for r in row) for row in dm) for dm in ratings),
    )


def rebuilt(problem):
    """A DecisionProblem built directly from the fields of ``problem``."""
    return DecisionProblem(*[getattr(problem, name) for name in problem._fields])


MILD = (0.5, 0.3, 0.2)
# C1 is certain of IS but weighs [0, 1], so only right parts see it; thirteen
# NS-leaning criteria drive the left part to within 1e-13 of certain NS. Both
# folds succeed and the collapse cannot.
N_NS = 13
LOCATED_FAILURES = {
    # two certain, opposed ratings under unit weights, fused over criteria
    "per-dm-fold": (
        build_problem(
            [(1, 1), (1, 1)],
            [[(1, 1), (1, 1)]] * 2,
            [[[MILD, MILD]] * 2, [[MILD, MILD], [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0)]]],
        ),
        POOLED,
        TotalConflict,
        "decision maker 'DM2', alternative 'A2', criterion 'C2': conflict coefficient is 1.0; combination is undefined",
    ),
    # each decision maker is certain of the opposite hypothesis
    "cross-dm-fold": (
        build_problem(
            [(1, 1), (1, 1)],
            [[(1, 1)], [(1, 1)]],
            [[[MILD], [(1.0, 0.0, 0.0)]], [[MILD], [(0.0, 1.0, 0.0)]]],
        ),
        POOLED,
        TotalConflict,
        "alternative 'A2', decision maker 'DM2': conflict coefficient is 1.0; combination is undefined",
    ),
    # the conflicting criterion weighs [0, 1]: its left part is vacuous, so
    # the left fold succeeds and only the right fold raises
    "per-dm-fold-right-part": (
        build_problem(
            [(1, 1), (1, 1)],
            [[(1, 1), (0, 1)]] * 2,
            [[[MILD, MILD]] * 2, [[MILD, MILD], [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0)]]],
        ),
        POOLED,
        TotalConflict,
        "decision maker 'DM2', alternative 'A2', criterion 'C2': conflict coefficient is 1.0; combination is undefined",
    ),
    # the same across decision makers: DM2 weighs [0, 1]
    "cross-dm-fold-right-part": (
        build_problem(
            [(1, 1), (0, 1)],
            [[(1, 1)], [(1, 1)]],
            [[[MILD], [(1.0, 0.0, 0.0)]], [[MILD], [(0.0, 1.0, 0.0)]]],
        ),
        POOLED,
        TotalConflict,
        "alternative 'A2', decision maker 'DM2': conflict coefficient is 1.0; combination is undefined",
    ),
    "collapse": (
        build_problem(
            [(1, 1)],
            [[(0, 1)] + [(1, 1)] * N_NS],
            [[[MILD] * (1 + N_NS), [(1.0, 0.0, 0.0)] + [(0.0, 0.9, 0.1)] * N_NS]],
        ),
        POOLED,
        TotalConflict,
        "alternative 'A2', collapse: conflict coefficient is 0.9999999999998999; combination is undefined",
    ),
    # passes construction (the pooled group is positive), but per-dm
    # normalization cannot divide DM2's own all-zero group
    "per-dm-normalization": (
        build_problem(
            [(1, 1), (1, 1)],
            [[(0.5, 0.5)], [(0.0, 0.0)]],
            [[[(0.6, 0.2, 0.2)], [(0.3, 0.5, 0.2)]], [[(0.4, 0.4, 0.2)], [(0.2, 0.6, 0.2)]]],
        ),
        PER_DM,
        AllZeroWeights,
        "decision maker 'DM2' criterion weights: all weights in the group are zero",
    ),
}


def two_by_two_doc():
    """A valid document: two decision makers, alternatives and criteria."""
    mild = [0.6, 0.2, 0.2]
    return {
        "schema_version": "1", "alternatives": ["A1", "A2"], "criteria": ["C1", "C2"],
        "decision_makers": [
            {"name": "DM1", "weight": [1, 1], "criterion_weights": [[0.5, 1], [1, 1]]},
            {"name": "DM2", "weight": [1, 1], "criterion_weights": [[0.5, 1], [1, 1]]},
        ],
        "ratings": {dm: {alt: {"C1": mild, "C2": mild} for alt in ("A1", "A2")} for dm in ("DM1", "DM2")},
    }


def with_value(doc, path, value):
    """A copy of ``doc`` with the node at ``path`` set to ``value``, or
    deleted when ``value`` is ``DELETED``."""
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is DELETED:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


DELETED = object()


def load_fault(doc, error=ValidationError):
    """The message of the ``error`` that loading ``doc`` raises."""
    with pytest.raises(error) as err:
        load_problem(json.dumps(doc))
    assert type(err.value) is error
    return str(err.value)


# The fields of a two_by_two_doc that must be JSON arrays, and those that must
# be JSON objects, by path and by the coordinates the loader names them with.
ARRAY_FIELDS = [
    (("alternatives",), "alternatives"),
    (("criteria",), "criteria"),
    (("frame",), "frame"),
    (("decision_makers",), "decision_makers"),
    (("decision_makers", 1, "criterion_weights"), "decision_makers[1].criterion_weights"),
    (("ratings", "DM2", "A1", "C2"), "ratings['DM2']['A1']['C2']"),
]
OBJECT_FIELDS = [
    (("scales",), "scales"),
    (("decision_makers", 1), "decision_makers[1]"),
    (("ratings",), "ratings"),
    (("ratings", "DM2"), "ratings['DM2']"),
    (("ratings", "DM1", "A2"), "ratings['DM1']['A2']"),
]
# A JSON value of each kind, and the Python type it decodes to.
JSON_KINDS = {
    "array": (["A1"], "list"), "object": ({"A1": 1}, "dict"), "string": ("A1", "str"),
    "number": (0.5, "float"), "boolean": (True, "bool"), "null": (None, "NoneType"),
}


class TestDecisionProblem:
    # the constructor stores its fields unchecked: the loader is where each
    # invariant of a problem is established, and each fault is named there

    def test_shape_checks(self):
        doc = two_by_two_doc()
        cases = [
            (("decision_makers", 0, "criterion_weights"), [[1, 1]], SchemaError,
             "decision_makers[0].criterion_weights: expected 2 entries, got 1"),
            (("ratings", "DM2"), DELETED, SchemaError, "ratings: missing decision maker(s): 'DM2'"),
            (("ratings", "DM1", "A2"), DELETED, SchemaError, "ratings['DM1']: missing alternative(s): 'A2'"),
            (("ratings", "DM2", "A1", "C3"), [0.6, 0.2, 0.2], SchemaError,
             "ratings['DM2']['A1']: unknown criterion(s): 'C3'"),
            # one rating but two criteria
            (("ratings", "DM1", "A1"), {"C1": [0.6, 0.2, 0.2]}, SchemaError,
             "ratings['DM1']['A1']: missing criterion(s): 'C2'"),
        ]
        for path, value, error, message in cases:
            assert load_fault(with_value(doc, path, value), error) == message

    def test_duplicate_labels(self):
        doc = two_by_two_doc()
        cases = [
            (("alternatives",), ["A1", "A2", "A1"], "alternatives: labels must be unique"),
            (("criteria",), ["C2", "C2"], "criteria: labels must be unique"),
            (("decision_makers", 1, "name"), "DM1", "decision_makers[1].name: duplicate decision maker 'DM1'"),
        ]
        for path, value, message in cases:
            assert load_fault(with_value(doc, path, value), SchemaError) == message

    @pytest.mark.parametrize("path, value, message", [
        (("ratings", "DM2", "A1", "C2"), "0.6", "ratings['DM2']['A1']['C2']: expected an array, got str"),
        (("ratings", "DM1", "A2", "C1"), {"IS": 0.6}, "ratings['DM1']['A2']['C1']: expected an array, got dict"),
        (("ratings", "DM2", "A2", "C2"), None, "ratings['DM2']['A2']['C2']: expected an array, got NoneType"),
        (("decision_makers", 1, "weight"), None,
         "decision_makers[1].weight: a weight must be a number, an interval pair, or a term reference"),
        (("decision_makers", 0, "criterion_weights", 1), ["0.2", 0.5],
         "decision_makers[0].criterion_weights[1][0]: expected a number, got str"),
        # a field or grid row of the wrong kind
        (("ratings", "DM2"), None, "ratings['DM2']: expected an object, got NoneType"),
        (("ratings", "DM1", "A2"), None, "ratings['DM1']['A2']: expected an object, got NoneType"),
        (("decision_makers", 1, "criterion_weights"), None,
         "decision_makers[1].criterion_weights: expected an array, got NoneType"),
        (("decision_makers", 1), None, "decision_makers[1]: expected an object, got NoneType"),
        (("alternatives",), None, "alternatives: expected an array, got NoneType"),
        # a string is not split into labels or cells
        (("alternatives",), "AB", "alternatives: expected an array, got str"),
        (("decision_makers",), "DM1", "decision_makers: expected an array, got str"),
        (("criteria",), {"C1": 0, "C2": 1}, "criteria: expected an array, got dict"),
        (("ratings", "DM1", "A2"), "ab", "ratings['DM1']['A2']: expected an object, got str"),
        # a label of the wrong type, or none
        (("schema_version",), 1, "schema_version: expected a string, got int"),
        (("criteria", 1), 5, "criteria[1]: expected a string, got int"),
        (("decision_makers", 0, "name"), ["DM1"], "decision_makers[0].name: expected a string, got list"),
    ], ids=["rating-str", "rating-object", "rating-null", "dm-weight-null", "criterion-weight-str-endpoint",
            "ratings-row-null", "ratings-alternative-row-null", "criterion-weights-row-null",
            "decision-maker-null", "alternatives-null", "alternatives-str", "decision-makers-str",
            "criteria-object", "ratings-alternative-row-str", "schema-version-int", "criterion-label-int",
            "decision-maker-label-list"])
    def test_wrong_typed_field_is_named(self, path, value, message):
        assert load_fault(with_value(two_by_two_doc(), path, value), SchemaError) == message

    @pytest.mark.parametrize("kind", [k for k in JSON_KINDS if k != "array"])
    def test_only_an_array_is_a_sequence(self, kind):
        value, got = JSON_KINDS[kind]
        for path, where in ARRAY_FIELDS:
            message = load_fault(with_value(two_by_two_doc(), path, value), SchemaError)
            assert message == f"{where}: expected an array, got {got}"

    @pytest.mark.parametrize("kind", [k for k in JSON_KINDS if k != "object"])
    def test_only_an_object_is_a_mapping(self, kind):
        value, got = JSON_KINDS[kind]
        for path, where in OBJECT_FIELDS:
            message = load_fault(with_value(two_by_two_doc(), path, value), SchemaError)
            assert message == f"{where}: expected an object, got {got}"

    @pytest.mark.parametrize("faults, message", [
        ([(("ratings", "DM1", "A1", "C1"), "x"), (("ratings", "DM2", "A2", "C2"), DELETED)],
         "ratings['DM1']['A1']['C1']: expected an array, got str"),
        ([(("ratings", "DM1", "A2", "C2"), DELETED), (("ratings", "DM2", "A1", "C1"), "x")],
         "ratings['DM1']['A2']: missing criterion(s): 'C2'"),
        # the ratings keyed in another order than the labels are declared in
        ([(("ratings",), {"DM2": {"A2": None, "A1": None}, "DM1": {"A2": None, "A1": {}}})],
         "ratings['DM1']['A1']: missing criterion(s): 'C1', 'C2'"),
    ], ids=["cell-type-before-later-shape", "shape-before-later-cell-type", "declared-order-not-key-order"])
    def test_first_ratings_fault_in_label_order_is_named(self, faults, message):
        doc = two_by_two_doc()
        for path, value in faults:
            doc = with_value(doc, path, value)
        assert load_fault(doc, SchemaError) == message

    def test_all_zero_weights_in_a_document(self):
        # the loader names the all-zero group, before it reads a ratings
        # fault (DM2's cell sums to 0.5)
        cases = [
            ((0, [0.0, 0]), ([[0.2, 0.4], 0.5], [0, 0.3]),
             "decision_makers[*].weight: weights must not all be zero"),
            ((1, [0.2, 0.4]), ([0.0, 0], [[0, 0.0], 0]),
             "decision_makers[*].criterion_weights: weights must not all be zero"),
        ]
        for (w1, w2), (cw1, cw2), message in cases:
            doc = json.dumps({
                "schema_version": "1", "alternatives": ["A1"], "criteria": ["C1", "C2"],
                "decision_makers": [
                    {"name": "DM1", "weight": w1, "criterion_weights": cw1},
                    {"name": "DM2", "weight": w2, "criterion_weights": cw2},
                ],
                "ratings": {
                    "DM1": {"A1": {"C1": [0.6, 0.2, 0.2], "C2": [0.6, 0.2, 0.2]}},
                    "DM2": {"A1": {"C1": [0.3, 0.1, 0.1], "C2": [0.6, 0.2, 0.2]}},
                },
            })
            with pytest.raises(ValidationError) as err:
                load_problem(doc)
            assert str(err.value) == message


class TestRankAlternatives:
    def test_supplier_dataset_matches_golden(self, supplier_problem, supplier_report, golden):
        report = supplier_report
        assert list(report.ranking) == golden["ranking"]
        for d, dm in enumerate(report.decision_makers):
            for c, crit in enumerate(report.criteria):
                lo, hi = golden["normalized_criterion_weights"][dm][c]
                got = report.normalized_criterion_weights[d][c]
                assert got.lo == pytest.approx(lo, abs=1e-9)
                assert got.hi == pytest.approx(hi, abs=1e-9)
            lo, hi = golden["normalized_dm_weights"][dm]
            got = report.normalized_dm_weights[d]
            assert got.lo == pytest.approx(lo, abs=1e-9)
            assert got.hi == pytest.approx(hi, abs=1e-9)
        def assert_pair(pair, expected):
            left, right = pair
            assert left == pytest.approx(tuple(expected["left"]), abs=1e-9)
            assert right == pytest.approx(tuple(expected["right"]), abs=1e-9)

        for d, dm in enumerate(report.decision_makers):
            for a, alt in enumerate(report.alternatives):
                for c, crit in enumerate(report.criteria):
                    assert_pair(report.cells[d][a][c], golden["cells"][dm][alt][crit])
                assert_pair(report.fused_per_dm[d][a], golden["per_dm_fused"][dm][alt])
        for a, alt in enumerate(report.alternatives):
            assert_pair(report.final[a], golden["final"][alt])
            assert report.collapsed[a] == pytest.approx(tuple(golden["collapsed"][alt]), abs=1e-9)
            assert report.bets[a] == pytest.approx(golden["bets"][alt], abs=1e-9)

    def test_bet_matches_general_pignistic(self, supplier_report):
        for a, t in enumerate(supplier_report.collapsed):
            expected = brute_pignistic(("IS", "NS"), by_labels(t))["IS"]
            assert supplier_report.bets[a] == pytest.approx(expected, abs=1e-12)

    def test_bets_over_two_hypotheses_sum_to_one(self, supplier_report):
        for a, (_, ns, full) in enumerate(supplier_report.collapsed):
            assert supplier_report.bets[a] + ns + full / 2.0 == pytest.approx(1.0, abs=1e-12)

    def test_every_intermediate_part_is_valid(self, supplier_report):
        def check(t):
            assert sum(t) == pytest.approx(1.0, abs=1e-9)
            # non-negative, and a zero mass is +0.0
            assert all(v >= 0.0 and math.copysign(1.0, v) == 1.0 for v in t)

        for t in trace_triples(supplier_report):
            check(t)

    def test_deterministic(self, supplier_problem, supplier_report):
        again = rank_alternatives(supplier_problem)
        assert again == supplier_report

    def test_trivial_single_source_pipeline(self):
        # one decision maker, one criterion, unit weights: the pipeline is
        # the self-collapse of each rating
        ratings = [(0.6, 0.2, 0.2), (0.2, 0.6, 0.2), (0.5, 0.3, 0.2)]
        problem = build_problem(
            [(1, 1)],
            [[(1, 1)]],
            [[[r] for r in ratings]],
        )
        report = rank_alternatives(problem)
        for i, r in enumerate(ratings):
            m = triple(*r)
            expected = bet_ideal(m.combine(m).masses)
            assert report.bets[i] == pytest.approx(expected, abs=1e-12)

    def test_ties_break_by_input_order(self):
        ratings = [(0.5, 0.3, 0.2), (0.5, 0.3, 0.2)]
        problem = build_problem([(1, 1)], [[(1, 1)]], [[[r] for r in ratings]])
        report = rank_alternatives(problem)
        assert report.bets[0] == report.bets[1]
        assert report.ranking == ("A1", "A2")

    def test_per_dm_normalization_flag(self):
        problem = build_problem(
            [(1, 1), (1, 1)],
            [[(0.2, 0.4), (0.1, 0.5)], [(0.3, 0.8), (0.2, 0.4)]],
            [
                [[(0.6, 0.2, 0.2), (0.5, 0.3, 0.2)]],
                [[(0.4, 0.4, 0.2), (0.3, 0.5, 0.2)]],
            ],
        )
        pooled = rank_alternatives(problem)
        per_dm = rank_alternatives(problem, criterion_normalization=PER_DM)
        # pooled: every weight divided by the global 0.8
        assert pooled.normalized_criterion_weights[0][0].lo == pytest.approx(0.25)
        # per-dm: DM1's group maximum is 0.5
        assert per_dm.normalized_criterion_weights[0][0].lo == pytest.approx(0.4)
        assert per_dm.normalized_criterion_weights[1][0].hi == pytest.approx(1.0)

    def test_unknown_normalization_mode(self):
        problem = build_problem([(1, 1)], [[(1, 1)]], [[[(0.6, 0.2, 0.2)]]])
        with pytest.raises(ValueError):
            rank_alternatives(problem, criterion_normalization="global")

    @pytest.mark.parametrize("stage", sorted(LOCATED_FAILURES))
    def test_failure_names_its_coordinates(self, stage):
        # each step that can fail on a valid problem, failing at a later
        # decision maker or alternative than the first
        problem, normalization, error, message = LOCATED_FAILURES[stage]
        with pytest.raises(error) as err:
            rank_alternatives(problem, criterion_normalization=normalization)
        assert str(err.value) == message
        if stage == "per-dm-normalization":
            assert rank_alternatives(problem).ranking  # pooled mode is fine
        # the per-object reference fails at the same step
        with pytest.raises(error) as err:
            per_object_rank(problem, normalization)
        assert str(err.value) == message

    def test_bet_ideal_shortcut(self):
        m = settled(0.9833, 0.0119, 0.0048)
        assert bet_ideal(m) == pytest.approx(0.9833 + 0.0048 / 2, abs=1e-12)



def seeded_problem(seed, n_dm, n_alt, n_crit):
    """A problem with interval weights and ratings in steps of 1/20, drawn
    from ``random.Random(seed)``."""
    rng = random.Random(seed)

    def weight():
        lo = rng.randint(1, 20)
        return lo / 20, rng.randint(lo, 20) / 20

    def rating():
        a = rng.randint(0, 20)
        b = rng.randint(0, 20 - a)
        return a / 20, b / 20, (20 - a - b) / 20

    return build_problem(
        [weight() for _ in range(n_dm)],
        [[weight() for _ in range(n_crit)] for _ in range(n_dm)],
        [[[rating() for _ in range(n_crit)] for _ in range(n_alt)] for _ in range(n_dm)],
    )


CERTAIN_IS, CERTAIN_NS = (1.0, 0.0, 0.0), (0.0, 1.0, 0.0)
LEANS_IS, LEANS_NS = (0.6, 0.2, 0.2), (0.3, 0.5, 0.2)
RANKED_PROBLEMS = {
    "supplier": load_problem(bundled_dataset_bytes()),
    "one-cell": build_problem([(1, 1)], [[(1, 1)]], [[[MILD]]]),
    # A2 and A4 tie above A1 and A3, which tie too: input order within each
    "two-ties": build_problem([(1, 1)], [[(1, 1)]], [[[r] for r in (LEANS_NS, LEANS_IS, LEANS_NS, LEANS_IS)]]),
    # every bet is 1/2, so the ranking is the input order
    "vacuous-ratings": build_problem([(0.2, 0.9), (1, 1)], [[(0.5, 1), (1, 1)]] * 2, [[[VACUOUS] * 2] * 3] * 2),
    # bets at both ends of [0, 1], the two certain IS ratings tied at the top
    "certain-ratings": build_problem([(0.5, 1), (1, 1)], [[(1, 1)]] * 2,
                                     [[[CERTAIN_NS], [CERTAIN_IS], [CERTAIN_NS], [CERTAIN_IS]]] * 2),
    # each weight spans all of [0, 1]
    "unit-interval-weights": build_problem([(0, 1), (0, 1)], [[(0, 1), (0, 1)]] * 2,
                                           [[[LEANS_IS, MILD], [LEANS_NS, MILD], [MILD, LEANS_IS]]] * 2),
    "seeded": seeded_problem(2017, n_dm=3, n_alt=8, n_crit=5),
}


@pytest.mark.parametrize("invariant", sorted(REPORT_INVARIANTS))
@pytest.mark.parametrize("shape", sorted(RANKED_PROBLEMS))
@pytest.mark.parametrize("normalization", [POOLED, PER_DM])
def test_rank_makes_a_report_that_keeps_the_invariants(normalization, shape, invariant):
    # the report's constructor checks nothing, so its one producer must
    # hold what it used to check: the label, ranking and weight fields are
    # tuples shaped like the problem, and the bets are finite and ordered
    problem = RANKED_PROBLEMS[shape]
    REPORT_INVARIANTS[invariant](problem, rank_alternatives(problem, criterion_normalization=normalization))


def built_directly(report, **changes):
    """A report built by its constructor from the fields of ``report``,
    with ``changes`` in place of some of them."""
    return type(report)(*[changes.get(f, getattr(report, f)) for f in report._fields])


@pytest.fixture
def mass_builds(monkeypatch):
    """The MassFunction values built through __post_init__ while the test
    runs. The loader builds no cell, and a loaded problem's ratings view
    builds its cells without it, in pipeline._cell."""
    built = []
    post_init = MassFunction.__post_init__

    def counting_post_init(self):
        post_init(self)
        built.append(self)

    monkeypatch.setattr(MassFunction, "__post_init__", counting_post_init)
    return built


def test_loading_checks_each_cell_once(mass_builds):
    # the loader checks a rating and builds its cell; the constructor's
    # checks would only repeat them
    load_problem(bundled_dataset_bytes())
    assert mass_builds == []


def live():
    """The live MassFunction values, by id."""
    return {id(o): o for o in gc.get_objects() if type(o) is MassFunction}


class TestRatingsView:
    """A problem holds its ratings as triples; ``ratings`` is a view of them."""

    def test_load_rank_and_render_build_no_mass_function(self, mass_builds):
        before = live()
        problem = load_problem(bundled_dataset_bytes())
        report = rank_alternatives(problem)
        emit_report(report, FULL_TRACE, HUMAN_TABLE)
        emit_report(report, FULL_TRACE, JSON_FORMAT)
        assert live().keys() - before.keys() == set()

        ratings = problem.ratings
        shape = len(problem.decision_makers), len(problem.alternatives), len(problem.criteria)
        assert (len(ratings), len(ratings[0]), len(ratings[0][0])) == shape
        assert len(live().keys() - before.keys()) == math.prod(shape)
        for dm, dm_triples in zip(ratings, problem._triples):
            for row, triples in zip(dm, dm_triples):
                assert all(type(m) is MassFunction and m.masses is t for m, t in zip(row, triples, strict=True))
        assert mass_builds == []

    def test_second_read_is_the_first(self):
        problem = load_problem(bundled_dataset_bytes())
        assert problem.ratings is problem.ratings

    def test_a_later_read_switches_no_collector(self, monkeypatch):
        # the first read of the view and of the cells is built with the
        # collector paused; a later read returns the kept value
        problem = load_problem(bundled_dataset_bytes())
        report = rank_alternatives(problem)
        switches = []
        disable = gc.disable
        monkeypatch.setattr(gc, "disable", lambda: switches.append(disable()))
        first = problem.ratings, report.cells
        assert len(switches) == 2
        assert problem.ratings is first[0] and report.cells is first[1]
        assert len(switches) == 2

    def test_equality_and_hashing_build_no_cell(self):
        before = live()
        source = bundled_dataset_bytes()
        problems = load_problem(source), load_problem(source)
        reports = [rank_alternatives(p) for p in problems]
        for a, b in (problems, reports):
            assert a == b and hash(a) == hash(b)
        doc = json.loads(source)
        doc["ratings"]["DM2"]["Supplier3"]["C2"] = [0.0, 0.0, 1.0]
        changed = load_problem(json.dumps(doc))
        assert changed != problems[0] and rank_alternatives(changed) != reports[0]
        assert live().keys() - before.keys() == set()

    def test_a_direct_build_equals_its_loaded_twin(self):
        loaded = load_problem(bundled_dataset_bytes())
        direct = rebuilt(loaded)
        for a, b in ((direct, loaded), (rank_alternatives(direct), rank_alternatives(loaded))):
            assert a == b and b == a and hash(a) == hash(b)

    def test_direct_build_keeps_the_cells_it_was_given(self, supplier_problem):
        # the constructor stores the triple grid as it is, and the view's
        # cells hold its very triples
        problem = rebuilt(supplier_problem)
        assert problem._triples is supplier_problem._triples
        for dm, dm_triples in zip(problem.ratings, problem._triples, strict=True):
            for row, triples in zip(dm, dm_triples, strict=True):
                assert all(m.masses is t for m, t in zip(row, triples, strict=True))


class TestTraceOnDemand:
    def test_summary_builds_no_mass_functions(self, supplier_problem, mass_builds):
        report = rank_alternatives(supplier_problem)
        emit_report(report, SUMMARY, HUMAN_TABLE)
        emit_report(report, SUMMARY, JSON_FORMAT)
        assert mass_builds == []

    def test_full_trace_emit_builds_no_mass_functions(self, supplier_problem, mass_builds):
        # both formats render the trace from the kernel's triple tables, and
        # reading the tables builds nothing either
        report = rank_alternatives(supplier_problem)
        emit_report(report, FULL_TRACE, HUMAN_TABLE)
        emit_report(report, FULL_TRACE, JSON_FORMAT)
        for table in TABLES:
            getattr(report, table)
        assert mass_builds == []

    def test_full_trace_bytes_repeat(self, supplier_problem):
        first = rank_alternatives(supplier_problem)
        second = rank_alternatives(supplier_problem)
        for fmt in (HUMAN_TABLE, JSON_FORMAT):
            once = emit_report(first, FULL_TRACE, fmt)
            assert emit_report(first, FULL_TRACE, fmt) == once
            assert emit_report(second, FULL_TRACE, fmt) == once

    def test_trace_is_built_once(self, supplier_report):
        # the tables are built together, once, and are immutable
        for table in TABLES:
            assert getattr(supplier_report, table) is getattr(supplier_report, table)
            assert type(getattr(supplier_report, table)) is tuple
            with pytest.raises(AttributeError):
                setattr(supplier_report, table, ())
        assert type(supplier_report.cells[0][0][0]) is tuple

    def test_reading_the_trace_only_discounts(self, supplier_problem, monkeypatch):
        # rank keeps its fusion tables; the cells are the one table read
        # again, one discount per (decision maker, alternative) row: once for
        # the kept `cells`, and once more for each full-trace render, which
        # fills its rows from the discounts and not from `cells`
        report = rank_alternatives(supplier_problem)
        calls = {name: 0 for name in ("discount_to_interval_bpa", "discount_interval_bpa", "fuse_interval_bpas",
                                      "collapse_interval_bpa")}
        for name in calls:
            def counted(*args, _stage=getattr(pipeline, name), _name=name):
                calls[_name] += 1
                return _stage(*args)

            monkeypatch.setattr(pipeline, name, counted)
        tables = [getattr(report, table) for table in TABLES]
        emit_report(report, FULL_TRACE, JSON_FORMAT)
        emit_report(report, FULL_TRACE, HUMAN_TABLE)
        rows = len(supplier_problem.decision_makers) * len(supplier_problem.alternatives)
        assert calls == {"discount_to_interval_bpa": 3 * rows, "discount_interval_bpa": 0, "fuse_interval_bpas": 0,
                         "collapse_interval_bpa": 0}
        assert tables == [getattr(rank_alternatives(supplier_problem), table) for table in TABLES]

    @pytest.mark.parametrize("round_trip", [lambda v: pickle.loads(pickle.dumps(v)), copy.deepcopy],
                             ids=["pickle", "deepcopy"])
    @pytest.mark.parametrize("read_first", [True, False], ids=["traced", "untraced"])
    def test_round_trip_keeps_the_trace(self, supplier_problem, round_trip, read_first):
        report = rank_alternatives(supplier_problem)
        if read_first:
            assert report.cells
        again = round_trip(report)
        assert [getattr(again, table) for table in TABLES] == [getattr(report, table) for table in TABLES]
        for fmt in (HUMAN_TABLE, JSON_FORMAT):
            assert emit_report(again, FULL_TRACE, fmt) == emit_report(report, FULL_TRACE, fmt)

    def test_report_built_directly_renders_a_summary(self, supplier_report):
        # the constructor stores the fields it is given
        report = built_directly(supplier_report)
        assert report == supplier_report
        for fmt in (HUMAN_TABLE, JSON_FORMAT):
            assert emit_report(report, SUMMARY, fmt) == emit_report(supplier_report, SUMMARY, fmt)
