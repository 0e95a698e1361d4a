import copy
import gc
import io
import json
import math
import os
import pickle
import random
import subprocess
import sys
import tracemalloc
import zipfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from intervalfusion import (
    JSON_FORMAT,
    DecisionProblem,
    Interval,
    MassFunction,
    emit_report,
    load_problem,
    rank_alternatives,
)
from intervalfusion.errors import (
    InvalidAlpha,
    ParseError,
    SchemaError,
    ValidationError,
)
from intervalfusion.cli import main
from intervalfusion.loading import bundled_dataset_bytes

from test_properties import assert_settled

SRC = Path(__file__).resolve().parents[1] / "src"


def minimal_doc(**overrides):
    doc = {
        "schema_version": "1",
        "alternatives": ["A1", "A2"],
        "criteria": ["C1"],
        "decision_makers": [
            {"name": "DM1", "weight": [0.5, 1.0], "criterion_weights": [[0.2, 0.4]]}
        ],
        "ratings": {
            "DM1": {
                "A1": {"C1": [0.6, 0.2, 0.2]},
                "A2": {"C1": [0.3, 0.5, 0.2]},
            }
        },
    }
    doc.update(overrides)
    return doc


def load(doc, **kw):
    return load_problem(json.dumps(doc), **kw)


class TestBundledDataset:
    def test_dimensions(self, supplier_problem):
        assert len(supplier_problem.decision_makers) == 3
        assert len(supplier_problem.criteria) == 4
        assert len(supplier_problem.alternatives) == 6

    def test_five_digit_row_renormalized(self, supplier_problem):
        # the (0.66667, 0, 0.3333) rating misses a unit sum by 3e-5 and is
        # rescaled on ingestion
        m = supplier_problem.ratings[0][3][0]
        assert sum(m.masses) == pytest.approx(1.0, abs=1e-9)
        assert m.masses[0] == pytest.approx(0.66667, abs=1e-4)

    def test_loads_from_bytes_and_stream(self):
        import io

        raw = bundled_dataset_bytes()
        a = load_problem(raw)
        b = load_problem(io.BytesIO(raw))
        c = load_problem(raw.decode("utf-8"))
        assert a == b == c

    @pytest.mark.parametrize("kind", [bytearray, memoryview])
    def test_other_source_types_rejected(self, kind):
        with pytest.raises(TypeError) as err:
            load_problem(kind(bundled_dataset_bytes()))
        assert str(err.value) == f"source must be bytes, str or a stream, got {kind.__name__}"

    def test_reading_imports_no_resource_machinery(self):
        # -S: no site .pth file may import any of them first
        code = (
            "import sys; from intervalfusion.cli import bundled_dataset_bytes; bundled_dataset_bytes(); "
            "print(sorted({'typing', 'importlib.resources', 'zipfile', 'tempfile'} & set(sys.modules)))"
        )
        result = subprocess.run(
            [sys.executable, "-S", "-c", code],
            capture_output=True,
            text=True,
            timeout=60,
            env={**os.environ, "PYTHONPATH": str(SRC)},
        )
        assert (result.returncode, result.stderr, result.stdout) == (0, "", "[]\n")

    def test_reads_from_a_zip_archive(self, tmp_path):
        archive = tmp_path / "intervalfusion.zip"
        with zipfile.ZipFile(archive, "w") as zf:
            for path in sorted((SRC / "intervalfusion").rglob("*")):
                if path.suffix in (".py", ".json"):
                    zf.write(path, path.relative_to(SRC).as_posix())
        code = (
            "import sys, intervalfusion; print(intervalfusion.__file__, file=sys.stderr); "
            "sys.stdout.buffer.write(intervalfusion.bundled_dataset_bytes())"
        )
        result = subprocess.run(
            [sys.executable, "-S", "-c", code],
            capture_output=True,
            timeout=60,
            env={**os.environ, "PYTHONPATH": str(archive), "PYTHONDONTWRITEBYTECODE": "1"},
        )
        assert result.returncode == 0, result.stderr
        assert result.stderr.decode().startswith(str(archive))
        assert result.stdout == (SRC / "intervalfusion" / "data" / "supplier-selection.json").read_bytes()


class TestWeightForms:
    def test_crisp_number(self):
        problem = load(
            minimal_doc(
                decision_makers=[
                    {"name": "DM1", "weight": 0.5, "criterion_weights": [[0.2, 0.4]]}
                ]
            )
        )
        assert problem.dm_weights[0] == Interval(0.5, 0.5)

    def test_interval_pair(self, supplier_problem):
        assert supplier_problem.dm_weights[2] == Interval(0.70, 0.95)

    def test_linguistic_interval_term(self):
        problem = load(
            minimal_doc(
                decision_makers=[
                    {
                        "name": "DM1",
                        "weight": {"term": "High (H)", "scale": "interval-default"},
                        "criterion_weights": [[0.2, 0.4]],
                    }
                ]
            )
        )
        assert problem.dm_weights[0] == Interval(0.5, 0.9)

    def test_linguistic_tfn_term_default_alpha(self):
        doc = minimal_doc(
            decision_makers=[
                {
                    "name": "DM1",
                    "weight": {"term": "Medium (M)", "scale": "kaufmann-tfn"},
                    "criterion_weights": [[0.2, 0.4]],
                }
            ]
        )
        assert load(doc).dm_weights[0] == Interval(0.3, 0.7)
        peak = load(doc, alpha=1.0).dm_weights[0]
        assert (peak.lo, peak.hi) == pytest.approx((0.5, 0.5), abs=1e-9)
        half = load(doc, alpha=0.5).dm_weights[0]
        assert (half.lo, half.hi) == pytest.approx((0.4, 0.6), abs=1e-9)

    def test_invalid_alpha(self):
        with pytest.raises(InvalidAlpha):
            load(minimal_doc(), alpha=1.5)

    def test_tfn_term_cut_at_its_peak(self):
        # the falling flank's cut at alpha 1 rounds 2.8e-9 below the peak
        peak = 3360657.0086845933
        vertices = [3338795.472462671, peak, 87707394.41313182]
        doc = minimal_doc(
            scales={"wide": {"kind": "tfn", "terms": {"T": vertices}}},
            decision_makers=[
                {
                    "name": "DM1",
                    "weight": {"term": "T", "scale": "wide"},
                    "criterion_weights": [[0.2, 0.4]],
                }
            ],
        )
        assert load(doc, alpha=1).dm_weights[0] == Interval(peak, peak)

    def test_user_defined_scale(self):
        doc = minimal_doc(
            scales={"mine": {"kind": "interval", "terms": {"So-so": [0.25, 0.75]}}},
            decision_makers=[
                {
                    "name": "DM1",
                    "weight": {"term": "So-so", "scale": "mine"},
                    "criterion_weights": [[0.2, 0.4]],
                }
            ],
        )
        assert load(doc).dm_weights[0] == Interval(0.25, 0.75)

    def test_user_scale_shadowing_builtin_rejected(self):
        doc = minimal_doc(
            scales={"interval-default": {"kind": "interval", "terms": {"A": [0, 1]}}}
        )
        with pytest.raises(SchemaError):
            load(doc)

    def test_unknown_scale(self):
        doc = minimal_doc(
            decision_makers=[
                {
                    "name": "DM1",
                    "weight": {"term": "High (H)", "scale": "nope"},
                    "criterion_weights": [[0.2, 0.4]],
                }
            ]
        )
        with pytest.raises(ValidationError) as err:
            load(doc)
        assert "interval-default" in str(err.value)

    def test_unknown_term_lists_valid_terms(self):
        doc = minimal_doc(
            decision_makers=[
                {
                    "name": "DM1",
                    "weight": {"term": "Extreme", "scale": "interval-default"},
                    "criterion_weights": [[0.2, 0.4]],
                }
            ]
        )
        with pytest.raises(ValidationError) as err:
            load(doc)
        assert "Medium (M)" in str(err.value)

    def test_negative_crisp_weight(self):
        doc = minimal_doc(
            decision_makers=[
                {"name": "DM1", "weight": -0.5, "criterion_weights": [[0.2, 0.4]]}
            ]
        )
        with pytest.raises(ValidationError) as err:
            load(doc)
        assert str(err.value) == (
            "decision_makers[0].weight: weight must be non-negative, got [-0.5, -0.5]"
        )

    @staticmethod
    def with_crisp_weight(literal):
        """The text of a document whose second decision maker weighs
        ``literal``, written as is, so that 1e400 and -0.0 reach the loader."""
        doc = minimal_doc()
        doc["decision_makers"].append({"name": "DM2", "weight": "W", "criterion_weights": [[0.2, 0.4]]})
        doc["ratings"]["DM2"] = doc["ratings"]["DM1"]
        return json.dumps(doc).replace('"weight": "W"', f'"weight": {literal}')

    @pytest.mark.parametrize("literal", ["0", "0.95", "-0.0"])
    def test_crisp_weight_is_a_point_interval(self, literal):
        w = load_problem(self.with_crisp_weight(literal)).dm_weights[1]
        x = float(literal)
        # bit for bit, so -0.0 is kept as -0.0
        assert (w.lo.hex(), w.hi.hex()) == (x.hex(), x.hex())

    @pytest.mark.parametrize(
        "literal, error, message",
        [
            ("-0.1", ValidationError, "weight must be non-negative, got [-0.1, -0.1]"),
            ("true", SchemaError, "expected a weight, got a boolean"),
            ("1e400", ValidationError, "number must be finite, got inf"),
            ('"0.5"', SchemaError, "a weight must be a number, an interval pair, or a term reference"),
        ],
        ids=["-0.1", "true", "1e400", "string"],
    )
    def test_crisp_weight_rejected(self, literal, error, message):
        with pytest.raises(error) as err:
            load_problem(self.with_crisp_weight(literal))
        assert str(err.value) == f"decision_makers[1].weight: {message}"

    @pytest.mark.parametrize(
        "literal, error, message",
        [
            ("[1e400, 0.5]", ValidationError, "[0]: number must be finite, got inf"),
            ("[0.1, -1e400]", ValidationError, "[1]: number must be finite, got -inf"),
            ("[0.1, 1" + "0" * 320 + "]", ValidationError, "[1]: number is too large, got 321 digits"),
            ('["0.1", 0.2]', SchemaError, "[0]: expected a number, got str"),
            ("[null, 1]", SchemaError, "[0]: expected a number, got NoneType"),
            ("[0, true]", SchemaError, "[1]: expected a number, got bool"),
            ("[0.1]", SchemaError, ": expected 2 numbers, got 1"),
        ],
        ids=["inf", "-inf", "int-beyond-float-range", "string", "null", "bool", "one-number"],
    )
    def test_interval_endpoint_rejected(self, literal, error, message):
        # the Interval constructor checks nothing: the loader checks each
        # endpoint of a pair and names it
        with pytest.raises(error) as err:
            load_problem(self.with_crisp_weight(literal))
        assert type(err.value) is error
        assert str(err.value) == f"decision_makers[1].weight{message}"

    @pytest.mark.parametrize(
        "weight, scales, shown",
        [
            (-5e-324, {}, "[-5e-324, -5e-324]"),
            ([-5e-324, 0.5], {}, "[-5e-324, 0.5]"),
            ({"term": "Sub", "scale": "odd"}, {"odd": {"kind": "interval", "terms": {"Sub": [-5e-324, 0.5]}}},
             "[-5e-324, 0.5]"),
        ],
        ids=["crisp", "interval-lo", "user-scale-term"],
    )
    def test_smallest_negative_weight_rejected(self, weight, scales, shown):
        # the sign test is lo < 0, not lo below some small negative bound
        doc = minimal_doc(scales=scales, decision_makers=[
            {"name": "DM1", "weight": 1.0, "criterion_weights": [weight]}
        ])
        with pytest.raises(ValidationError) as err:
            load(doc)
        assert str(err.value) == f"decision_makers[0].criterion_weights[0]: weight must be non-negative, got {shown}"

    def test_negative_scale_term_weight(self):
        doc = minimal_doc(
            scales={"odd": {"kind": "interval", "terms": {"Sub": [-0.2, 0.5]}}},
            decision_makers=[
                {
                    "name": "DM1",
                    "weight": {"term": "Sub", "scale": "odd"},
                    "criterion_weights": [[0.2, 0.4]],
                }
            ],
        )
        with pytest.raises(ValidationError) as err:
            load(doc)
        assert "decision_makers[0].weight" in str(err.value)

    def test_inverted_weight_interval(self):
        doc = minimal_doc(
            decision_makers=[
                {"name": "DM1", "weight": [0.9, 0.1], "criterion_weights": [[0.2, 0.4]]}
            ]
        )
        with pytest.raises(ValidationError) as err:
            load(doc)
        assert str(err.value) == "decision_makers[0].weight: lower endpoint 0.9 exceeds upper endpoint 0.1"

    def test_inversion_collapses_up_to_the_endpoint_tolerance(self):
        # README: lo > hi by at most 1e-12 is read as [lo, lo]; by more, rejected
        inside, outside = 1e-12, math.nextafter(1e-12, 1.0)
        w = load(minimal_doc(decision_makers=[
            {"name": "DM1", "weight": [inside, 0.0], "criterion_weights": [[0.2, 0.4]]}
        ])).dm_weights[0]
        assert (w.lo, w.hi) == (inside, inside)
        with pytest.raises(ValidationError) as err:
            load(minimal_doc(decision_makers=[
                {"name": "DM1", "weight": [outside, 0.0], "criterion_weights": [[0.2, 0.4]]}
            ]))
        assert str(err.value) == f"decision_makers[0].weight: lower endpoint {outside} exceeds upper endpoint 0.0"

    def test_tiny_inversion_clamped(self):
        # an interval-scale term is read by the same rule
        doc = minimal_doc(
            scales={"odd": {"kind": "interval", "terms": {"Near": [0.5 + 5e-13, 0.5]}}},
            decision_makers=[
                {"name": "DM1", "weight": 1.0, "criterion_weights": [{"term": "Near", "scale": "odd"}]}
            ],
        )
        w = load(doc).criterion_weights[0][0]
        assert w.lo == w.hi == 0.5 + 5e-13


class TestRatings:
    def test_negative_mass_names_cell(self):
        doc = minimal_doc()
        doc["ratings"]["DM1"]["A2"]["C1"] = [0.7, 0.7, -0.4]
        with pytest.raises(ValidationError) as err:
            load(doc)
        message = str(err.value)
        assert "'DM1'" in message and "'A2'" in message and "'C1'" in message

    def test_sum_violation_names_cell(self):
        doc = minimal_doc()
        doc["ratings"]["DM1"]["A1"]["C1"] = [0.7, 0.7, 0.0]
        with pytest.raises(ValidationError) as err:
            load(doc)
        assert "'A1'" in str(err.value)

    def test_wrong_arity(self):
        doc = minimal_doc()
        doc["ratings"]["DM1"]["A1"]["C1"] = [0.7, 0.3]
        with pytest.raises(SchemaError):
            load(doc)

    def test_missing_cell(self):
        doc = minimal_doc()
        del doc["ratings"]["DM1"]["A2"]["C1"]
        with pytest.raises(SchemaError) as err:
            load(doc)
        assert "'C1'" in str(err.value)

    def test_extra_decision_maker_in_ratings(self):
        doc = minimal_doc()
        doc["ratings"]["DM9"] = doc["ratings"]["DM1"]
        with pytest.raises(SchemaError):
            load(doc)


# One JSON literal in place of ratings['DM2']['Supplier3']['C2'] of the
# bundled dataset, and the exact diagnostic for each way a cell is rejected.
CELL = "ratings['DM2']['Supplier3']['C2']"
CELL_REJECTIONS = [
    ('{"a": 1}', SchemaError, f"{CELL}: expected an array, got dict"),
    ("0.5", SchemaError, f"{CELL}: expected an array, got float"),
    ("null", SchemaError, f"{CELL}: expected an array, got NoneType"),
    # a string of three characters unpacks as three items, yet is no triple
    ('"0.5"', SchemaError, f"{CELL}: expected an array, got str"),
    ("[]", SchemaError, f"{CELL}: expected 3 numbers, got 0"),
    ("[0.5, 0.5]", SchemaError, f"{CELL}: expected 3 numbers, got 2"),
    ("[0.5, 0.3, 0.1, 0.1]", SchemaError, f"{CELL}: expected 3 numbers, got 4"),
    ('["0.5", 0.3, 0.2]', SchemaError, f"{CELL}[0]: expected a number, got str"),
    ("[0.5, true, 0.5]", SchemaError, f"{CELL}[1]: expected a number, got bool"),
    ("[0.0, null, 1.0]", SchemaError, f"{CELL}[1]: expected a number, got NoneType"),
    ("[0.5, [0.5], 0.0]", SchemaError, f"{CELL}[1]: expected a number, got list"),
    ("[1e400, 0.0, 0.0]", ValidationError, f"{CELL}[0]: number must be finite, got inf"),
    ("[0.5, 0.5, -1e400]", ValidationError, f"{CELL}[2]: number must be finite, got -inf"),
    ("[0.5, 0.5, 1" + "0" * 320 + "]", ValidationError, f"{CELL}[2]: number is too large, got 321 digits"),
    ("[-0.5, 0.5, 1.0]", ValidationError, f"{CELL}[0]: mass must be non-negative, got -0.5"),
    ("[0.6, -0.2, 0.6]", ValidationError, f"{CELL}[1]: mass must be non-negative, got -0.2"),
    ("[0.7, 0.7, -0.4]", ValidationError, f"{CELL}[2]: mass must be non-negative, got -0.4"),
    # the negative float nearest zero
    ("[0.5, 0.5, -5e-324]", ValidationError, f"{CELL}[2]: mass must be non-negative, got -5e-324"),
    ("[0.5, 0.5, 0.1]", ValidationError, f"{CELL}: masses sum to 1.1, expected 1"),
    # just past the tolerance, above 1 and below it
    ("[0.5, 0.5, 0.0011]", ValidationError, f"{CELL}: masses sum to 1.0011, expected 1"),
    ("[0.5, 0.4, 0.0989]", ValidationError, f"{CELL}: masses sum to 0.9989, expected 1"),
    # no mass at all: rejected, never divided by its zero sum
    ("[0.0, 0.0, 0.0]", ValidationError, f"{CELL}: masses sum to 0.0, expected 1"),
    # finite masses whose sum is beyond float range
    ("[1e308, 1e308, 0.0]", ValidationError, f"{CELL}: masses sum to inf, expected 1"),
    # every number is checked to be finite before any is checked for sign
    ("[-0.5, 1e400, 0.2]", ValidationError, f"{CELL}[1]: number must be finite, got inf"),
]


def load_with_cell(literal):
    doc = json.loads(bundled_dataset_bytes())
    doc["ratings"]["DM2"]["Supplier3"]["C2"] = "@cell@"
    return load_problem(json.dumps(doc).replace('"@cell@"', literal))


class TestRatingCellDiagnostics:
    @pytest.mark.parametrize("literal, error, message", CELL_REJECTIONS)
    def test_rejection_names_the_cell(self, literal, error, message):
        with pytest.raises(error) as err:
            load_with_cell(literal)
        assert type(err.value) is error
        assert str(err.value) == message

    @pytest.mark.parametrize(
        "literal, masses",
        [
            ("[0, 1, 0]", (0.0, 1.0, 0.0)),
            ("[0.0, 1.0, 0.0]", (0.0, 1.0, 0.0)),
            ("[-0.0, 1, 0]", (0.0, 1.0, 0.0)),
            # all floats, so the cell takes the fast path with its -0.0
            ("[0.5, 0.5, -0.0]", (0.5, 0.5, 0.0)),
            # the vacuous triple: all mass on the full frame
            ("[0, 0, 1]", (0.0, 0.0, 1.0)),
            ("[5e-324, 0.0, 1.0]", (5e-324, 0.0, 1.0)),
            ("[0.6, 0.2, 0.2]", (0.6, 0.2, 0.2)),
            # plain sum 0.9999999999999999, fsum 1: kept bit for bit
            ("[0.7, 0.2, 0.1]", (0.7, 0.2, 0.1)),
            # rounded to 4 decimals, rescaled by its sum
            ("[0.3333, 0.3333, 0.3333]", (0.3333 / 0.9999,) * 3),
            # within the tolerance by 1e-4, rescaled by its sum
            ("[0.5, 0.4, 0.0991]", (0.5 / 0.9991, 0.4 / 0.9991, 0.0991 / 0.9991)),
            ("[0.6667, 0, 0.3333]", (0.6667, 0.0, 0.3333)),
        ],
    )
    def test_accepted_cell_masses(self, literal, masses):
        m = load_with_cell(literal).ratings[1][2][1]
        assert m.masses == masses
        # every zero mass is +0.0, whatever the sign of its literal
        assert all(math.copysign(1.0, v) == 1.0 for v in m.masses)

    def test_cell_is_named_by_the_reprs_of_its_labels(self):
        # labels whose repr escapes a quote and a backslash, and keeps a
        # non-ASCII letter
        dm, alt, crit = "it's \"x\"", "back\\slash", "Zürich"
        cell = r"""ratings['it\'s "x"']['back\\slash']['Zürich']"""
        doc = {
            "schema_version": "1", "alternatives": [alt], "criteria": [crit],
            "decision_makers": [{"name": dm, "weight": 1, "criterion_weights": [1]}],
            "ratings": {dm: {alt: {crit: [0.7, 0.7, -0.4]}}},
        }
        with pytest.raises(ValidationError) as err:
            load(doc)
        assert str(err.value) == cell + "[2]: mass must be non-negative, got -0.4"


def edge_document(seed, n_dm=2, n_alt=3, n_crit=4):
    """A valid document whose cells take every path of the loader: rounded
    triples it rescales, int masses, -0.0 masses and full-precision floats;
    with crisp, interval, built-in tfn and user tfn weights."""
    rng = random.Random(seed)
    alts, crits, dms = ([f"{p}{i}" for i in range(1, n + 1)] for p, n in (("A", n_alt), ("C", n_crit), ("D", n_dm)))
    fixed = [[1, 0, 0], [0, 1, 0], [0, 0, 1], [-0.0, 0.5, 0.5], [0.25, -0.0, 0.75], [0.3333, 0.3333, 0.3333]]

    def cell():
        kind = rng.randrange(3)
        if kind == 0:
            return rng.choice(fixed)
        a = rng.random() * 0.6
        b = rng.random() * (1.0 - a)
        if kind == 1:  # rounded: misses a unit sum by up to 1.5e-4
            return [round(a, 4), round(b, 4), round(1.0 - a - b + rng.choice((-1e-4, 0.0, 1e-4)), 4)]
        return [a, b, 1.0 - a - b]

    def weight():
        return rng.choice([
            round(rng.random(), 3),
            [0.1, round(0.1 + rng.random() * 0.9, 3)],
            {"term": rng.choice(["Low (L)", "High (H)", "Very high (VH)"]), "scale": "kaufmann-tfn"},
            {"term": rng.choice(["low", "high"]), "scale": "importance"},
        ])

    return json.dumps({
        "schema_version": "1",
        "alternatives": alts,
        "criteria": crits,
        "scales": {"importance": {"kind": "tfn", "terms": {"low": [0.0, 0.25, 0.5], "high": [0.4, 0.8, 1.0]}}},
        "decision_makers": [{"name": d, "weight": [0.5, 1.0], "criterion_weights": [weight() for _ in crits]} for d in dms],
        "ratings": {d: {a: {c: cell() for c in crits} for a in alts} for d in dms},
    })


LOADED = [("bundled", bundled_dataset_bytes(), 0.0)] + [
    (f"seed{seed}-alpha{alpha}", edge_document(seed), alpha) for seed in range(4) for alpha in (0.0, 0.5, 1.0)
] + [
    # weights inverted by less than the endpoint tolerance, read as [lo, lo]
    ("inverted-within-tolerance", json.dumps(minimal_doc(decision_makers=[
        {"name": "DM1", "weight": [0.5 + 5e-13, 0.5], "criterion_weights": [[0.4 + 1e-13, 0.4]]}
    ])), 0.0),
]


def holds_every_problem_invariant(problem):
    """What the DecisionProblem and Interval constructors store unchecked:
    tuple fields, labels, a weight per decision maker and per criterion of
    each, its endpoints finite floats with lo <= hi, and a D x A x C grid of
    rating triples."""
    labels = problem.alternatives, problem.criteria, problem.decision_makers
    assert {type(getattr(problem, name)) for name in DecisionProblem._fields} == {tuple}
    for group in labels:
        assert group and {type(x) for x in group} == {str} and all(group) and len(set(group)) == len(group)
    n_alt, n_crit, n_dm = map(len, labels)
    weights = problem.criterion_weights
    assert len(problem.dm_weights) == n_dm and {type(ws) for ws in weights} == {tuple}
    assert [len(ws) for ws in weights] == [n_crit] * n_dm
    for group in problem.dm_weights, [w for ws in weights for w in ws]:
        assert {type(w) for w in group} == {Interval}
        assert all(type(w.lo) is type(w.hi) is float and 0.0 <= w.lo <= w.hi < math.inf for w in group)
        assert max(w.hi for w in group) > 0.0
    grid = problem._triples
    assert len(grid) == n_dm and {type(dm) for dm in grid} == {tuple} and [len(dm) for dm in grid] == [n_alt] * n_dm
    rows = [row for dm in grid for row in dm]
    assert {type(row) for row in rows} == {tuple} and [len(row) for row in rows] == [n_crit] * len(rows)
    triples = [t for row in rows for t in row]
    assert {type(t) for t in triples} == {tuple} and {len(t) for t in triples} == {3}
    assert {type(x) for t in triples for x in t} == {float}
    assert all(math.copysign(1.0, x) == 1.0 for t in triples for x in t)


class TestLoaderEstablishesEveryInvariant:
    """The DecisionProblem constructor checks nothing, so the loader, the one
    checked way to make a problem, holds every invariant of its fields."""

    @pytest.fixture(params=LOADED, ids=[name for name, _, _ in LOADED])
    def problem(self, request):
        _, source, alpha = request.param
        return load_problem(source, alpha=alpha)

    def test_holds_every_problem_invariant(self, problem):
        holds_every_problem_invariant(problem)

    def test_pickle_and_copy_rebuild_it(self, problem):
        for again in pickle.loads(pickle.dumps(problem)), copy.deepcopy(problem):
            assert again == problem and hash(again) == hash(problem)
            holds_every_problem_invariant(again)

    def test_cells_hold_settled_triples(self, problem):
        cells = [(cell, t) for dm, grid in zip(problem.ratings, problem._triples, strict=True)
                 for row, triples in zip(dm, grid, strict=True) for cell, t in zip(row, triples, strict=True)]
        for cell, t in cells:
            assert type(cell) is MassFunction and cell.masses is t
            assert type(t) is tuple
            assert_settled(t)

    def test_documents_take_every_cell_path(self):
        docs = [json.loads(source) for _, source, _ in LOADED[1:]]
        cells = [cell for doc in docs for dm in doc["ratings"].values() for row in dm.values() for cell in row.values()]
        assert any(math.fsum(cell) != 1.0 for cell in cells)  # rescaled
        assert [1, 0, 0] in cells and [0, 0, 1] in cells
        assert any(math.copysign(1.0, x) == -1.0 for cell in cells for x in cell)
        scales = {w["scale"] for doc in docs for dm in doc["decision_makers"] for w in dm["criterion_weights"] if type(w) is dict}
        assert scales == {"kaufmann-tfn", "importance"}


def traced_peak(call):
    """``call()`` and the peak of the memory it allocated, by ``tracemalloc``."""
    gc.collect()
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("shape", [(3, 200, 10), (3, 400, 10)], ids=["6000-cells", "12000-cells"])
def test_load_peaks_at_the_decoded_document(shape):
    # Each triple holds the masses as decoded, and each decoded row is
    # freed once its triples are built, so a load never holds a second
    # copy of the ratings: its peak is that of decoding the same bytes.
    source = edge_document(5, *shape).encode()
    doc, decode_peak = traced_peak(lambda: json.loads(source.decode()))
    problem, load_peak = traced_peak(lambda: load_problem(source))
    assert load_peak <= 1.10 * decode_peak

    def summed_to_one(cell):  # the rule the masses were read by: rescaled, then -0.0 as +0.0
        total = math.fsum(map(float, cell))
        return [((x / total if total != 1.0 else float(x)) + 0.0).hex() for x in cell]

    cells = [cell for dm in doc["ratings"].values() for row in dm.values() for cell in row.values()]
    triples = [t for dm in problem._triples for row in dm for t in row]
    assert len(triples) == math.prod(shape)
    assert [[x.hex() for x in t] for t in triples] == [summed_to_one(cell) for cell in cells]
    assert any(math.copysign(1.0, x) == -1.0 for cell in cells for x in cell)


class TestDocumentStructure:
    def test_malformed_json_reports_position(self):
        with pytest.raises(ParseError) as err:
            load_problem(b'{"schema_version": "1",')
        assert "line 1" in str(err.value)

    def test_invalid_utf8(self):
        with pytest.raises(ParseError):
            load_problem(b'\xff\xfe{"a": 1}')

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    def test_nan_rejected(self, literal):
        with pytest.raises(ParseError) as err:
            load_problem('{"schema_version": %s}' % literal)
        assert str(err.value) == f"non-finite number literal {literal!r} is not allowed"

    def test_overflowing_number_rejected(self):
        doc = minimal_doc()
        raw = json.dumps(doc).replace("0.6", "1e999")
        with pytest.raises(ValidationError):
            load_problem(raw)

    def test_overlong_integer_literal_rejected(self):
        raw = json.dumps(minimal_doc()).replace("[0.5, 1.0]", "7" * 5000)
        with pytest.raises(ParseError) as err:
            load_problem(raw)
        assert "digits" in str(err.value)

    def test_integer_beyond_float_range_names_field(self):
        raw = json.dumps(minimal_doc()).replace("[0.5, 1.0]", "1" + "0" * 400)
        with pytest.raises(ValidationError) as err:
            load_problem(raw)
        assert "decision_makers[0].weight" in str(err.value)

    def test_duplicate_key_rejected(self):
        raw = json.dumps(minimal_doc()).replace(
            '"C1": [0.6, 0.2, 0.2]', '"C1": [0.6, 0.2, 0.2], "C1": [0.1, 0.8, 0.1]'
        )
        with pytest.raises(ParseError) as err:
            load_problem(raw)
        assert "'C1'" in str(err.value)

    def test_lone_surrogate_rejected(self):
        raw = json.dumps(minimal_doc()).replace('"A1"', '"A1\\ud800"')
        with pytest.raises(ValidationError) as err:
            load_problem(raw)
        message = str(err.value)
        assert "alternatives[0]" in message
        message.encode("utf-8")  # the diagnostic itself can be printed

    def test_non_object_top_level(self):
        with pytest.raises(SchemaError):
            load_problem(b"[1, 2, 3]")

    def test_empty_document(self):
        with pytest.raises(SchemaError) as err:
            load_problem(b"{}")
        assert "missing" in str(err.value)

    def test_unknown_top_level_key(self):
        with pytest.raises(SchemaError):
            load(minimal_doc(extra_field=1))

    def test_unsupported_schema_version(self):
        with pytest.raises(SchemaError):
            load(minimal_doc(schema_version="2"))

    def test_wrong_frame(self):
        with pytest.raises(SchemaError):
            load(minimal_doc(frame=["GOOD", "BAD"]))

    def test_explicit_default_frame_accepted(self):
        report = rank_alternatives(load(minimal_doc(frame=["IS", "NS"])))
        assert json.loads(emit_report(report, fmt=JSON_FORMAT))["frame"] == ["IS", "NS"]

    @pytest.mark.parametrize("changes, message", [
        ({"criteria": []}, "criteria: must not be empty"),
        ({"alternatives": ["A1", ""]}, "alternatives[1]: label must not be empty"),
        ({"scales": {"": {"kind": "interval", "terms": {"L": [0.1, 0.2]}}}},
         "scales: scale names must not be empty"),
        ({"scales": {"s": {"kind": "interval", "terms": {}}}}, "scales['s'].terms: must not be empty"),
        ({"decision_makers": []}, "decision_makers: must not be empty"),
        ({"decision_makers": [{"name": "", "weight": 1.0, "criterion_weights": [0.5]}]},
         "decision_makers[0].name: must not be empty"),
    ], ids=["criteria", "alternative-label", "scale-name", "scale-terms", "decision-makers",
            "decision-maker-name"])
    def test_empty_field_rejected(self, changes, message):
        with pytest.raises(SchemaError) as err:
            load(minimal_doc(**changes))
        assert str(err.value) == message

    def test_duplicate_alternatives(self):
        # the criteria too: a repeated criterion would otherwise load, and its rating fuse twice
        for field, labels in ("alternatives", ["A1", "A1"]), ("criteria", ["C1", "C1"]):
            with pytest.raises(SchemaError) as err:
                load(minimal_doc(**{field: labels}))
            assert str(err.value) == f"{field}: labels must be unique"

    def test_duplicate_decision_makers(self):
        doc = minimal_doc()
        doc["decision_makers"] = doc["decision_makers"] * 2
        with pytest.raises(SchemaError):
            load(doc)

    def test_criterion_weight_count_mismatch(self):
        doc = minimal_doc(
            decision_makers=[
                {"name": "DM1", "weight": 1.0, "criterion_weights": [[0.2, 0.4], [0.1, 0.3]]}
            ]
        )
        with pytest.raises(SchemaError) as err:
            load(doc)
        assert str(err.value) == "decision_makers[0].criterion_weights: expected 1 entries, got 2"


# --- structure-aware fuzz -----------------------------------------------------

SENTINEL = "\x00mutation\x00"


def _nodes(node, path=()):
    yield path, node
    if isinstance(node, (dict, list)):
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            yield from _nodes(child, path + (key,))


def _with_text_at(doc, path, text):
    """JSON text of ``doc`` with the node at ``path`` written as ``text``."""
    if not path:
        return text
    doc = json.loads(json.dumps(doc))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = SENTINEL
    return json.dumps(doc).replace(json.dumps(SENTINEL), text)


def _mutate(rng, doc):
    """One seeded mutation of ``doc``: (kind, document bytes)."""
    nodes = list(_nodes(doc))
    kind = rng.choice(("duplicate key", "long integer", "1e400", "deep nesting", "bom", "surrogate"))
    if kind == "bom":
        return kind, b"\xef\xbb\xbf" + json.dumps(doc).encode()
    if kind == "duplicate key":
        path, node = rng.choice([(p, n) for p, n in nodes if isinstance(n, dict) and n])
        key = rng.choice(list(node))
        text = json.dumps(node)[:-1] + f", {json.dumps(key)}: {json.dumps(rng.choice(nodes)[1])}}}"
    elif kind == "long integer":
        path, _ = rng.choice(nodes)
        digits = "".join(rng.choice("0123456789") for _ in range(rng.randrange(4300, 5000)))
        text = rng.choice(("", "-")) + "1" + digits
    elif kind == "1e400":
        path, _ = rng.choice(nodes)
        text = rng.choice(("1e400", "-1e400", "[1e400, 1e400]", "[0, 1e400]"))
    elif kind == "deep nesting":
        path, _ = rng.choice(nodes)
        depth = rng.choice((2, 40, 900, 5_000, 100_000))
        text = rng.choice(("[" * depth + "]" * depth, '{"a": ' * depth + "0" + "}" * depth))
    else:
        # a lone surrogate escape, at a random place in a string or a key
        strings = [(p, n) for p, n in nodes if isinstance(n, str)]
        keyed = [(p, n) for p, n in nodes if isinstance(n, dict) and n]
        if rng.random() < 0.5:
            path, node = rng.choice(strings)
            cut = rng.randrange(len(node) + 1)
            node = node[:cut] + SENTINEL + node[cut:]
        else:
            path, node = rng.choice(keyed)
            victim = rng.choice(list(node))
            node = {(k + SENTINEL if k == victim else k): v for k, v in node.items()}
        text = json.dumps(node).replace(json.dumps(SENTINEL)[1:-1], "\\ud800")
    return kind, _with_text_at(doc, path, text).encode()


def test_structured_fuzz_fails_closed(tmp_path):
    """Seeded mutations of the bundled dataset: each document either loads or
    raises one of the three loader diagnostics, and ``validate`` exits 0, or
    1 with exactly one diagnostic line."""
    rng = random.Random(20261018)
    doc = json.loads(bundled_dataset_bytes())
    path = tmp_path / "mutated.json"
    seen = set()
    for _ in range(300):
        kind, data = _mutate(rng, doc)
        seen.add(kind)
        try:
            load_problem(data)
            error = None
        except (ParseError, SchemaError, ValidationError) as exc:
            error = exc
        if kind in ("duplicate key", "long integer", "bom"):
            assert isinstance(error, ParseError), (kind, error)
        path.write_bytes(data)
        # a StringIO, unlike a strict UTF-8 stream, also takes the lone
        # surrogates that some diagnostics quote unescaped
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(["validate", "--input", str(path)])
        if error is None:
            assert (code, err.getvalue()) == (0, ""), kind
        else:
            assert code == 1, kind
            assert err.getvalue().splitlines() == [f"error ({type(error).__name__}): {error}"], kind
    assert len(seen) == 6
