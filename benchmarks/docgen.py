"""Seeded problem documents for the benchmark workloads.

Everything here is plain Python and imports nothing from the package: the
program under test only ever sees the bytes this module produces. The same
(workload, seed) pair always yields the same documents, byte for byte.

A document is described by a :class:`Doc`. Besides its bytes it carries the
parsed dictionary (for the independent oracle), how to run it (CLI command,
alpha level, criterion normalization) and the outcome it must have.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

#: Outcomes a document may be expected to have.
OK = "ok"  # produces a result
REJECT = "reject"  # exit code 1 with one "error (" line, or a loader error in process
#: ROADMAP item 3 defect classes: the fail-closed outcome is REJECT, but the
#: seed program behaves differently (see KNOWN_DEFECT_CLASSES).
DEFECT = "defect"

POOLED = "pooled"
PER_DM = "per-dm"

KAUFMANN_TERMS = ("Very low (VL)", "Low (L)", "Medium (M)", "High (H)", "Very high (VH)")

#: A user-defined tfn scale on a 1..9 importance range.
USER_SCALE = {
    "importance": {
        "kind": "tfn",
        "terms": {
            "negligible": [1, 1, 3],
            "minor": [1, 3, 5],
            "moderate": [3, 5, 7],
            "major": [5, 7, 9],
            "critical": [7, 9, 9],
        }
    }
}

#: Each known-defect class and how the seed program ends on it: the exit
#: code and, for exit code 1, the exception its traceback names.
KNOWN_DEFECT_CLASSES = {
    "duplicate_key": (0, None),  # a second "C1" in a rating object silently wins
    "huge_weight": (1, "OverflowError"),  # a weight of 10**400, written out as an integer literal
    "long_integer": (1, "ValueError"),  # a 5000-digit integer literal, refused by json
    "lone_surrogate": (1, "UnicodeEncodeError"),  # label "A1\ud800" validates, then cannot be printed
}


@dataclass
class Doc:
    name: str
    data: bytes
    expect: str = OK
    body: dict | None = None  # parsed form, for the oracle; None for malformed documents
    cells: int = 0
    alpha: float = 0.0
    normalization: str = POOLED
    argv: tuple[str, ...] = ()  # CLI arguments (cli_small); "{input}" marks the input path
    meta: dict = field(default_factory=dict)


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"intervalfusion-bench:{workload}:{seed}")


def _labels(prefix: str, n: int) -> list[str]:
    width = len(str(n))
    return [f"{prefix}{i + 1:0{width}d}" for i in range(n)]


def _triple(rng: random.Random, quality: float, rounded: bool) -> list[float]:
    """A rating (m_IS, m_NS, m_ISNS) that leans towards the alternative's
    latent quality, so decision makers broadly agree and Dempster's rule
    never meets total conflict."""
    uncommitted = rng.uniform(0.2, 0.6)
    share = min(max(rng.gauss(quality, 0.12), 0.03), 0.97)
    p = (1.0 - uncommitted) * share
    q = (1.0 - uncommitted) - p
    if rounded:
        p, q = round(p, 4), round(q, 4)
        return [p, q, round(1.0 - p - q + rng.choice((-1e-4, 0.0, 1e-4)), 4)]
    return [p, q, 1.0 - p - q]


def _weight(rng: random.Random, form: str):
    if form == "crisp":
        return round(rng.uniform(0.05, 1.0), 4)
    if form == "interval":
        lo = round(rng.uniform(0.05, 0.6), 4)
        return [lo, round(lo + rng.uniform(0.0, 0.4), 4)]
    if form == "kaufmann":
        return {"term": rng.choice(KAUFMANN_TERMS), "scale": "kaufmann-tfn"}
    if form == "user":
        return {"term": rng.choice(tuple(USER_SCALE["importance"]["terms"])), "scale": "importance"}
    raise ValueError(form)


def problem(
    rng: random.Random,
    shape: tuple[int, int, int],
    weight_forms: tuple[str, ...],
    *,
    rounded: bool = False,
) -> dict:
    """A valid schema-v1 document of D decision makers x A alternatives x C criteria."""
    n_dm, n_alt, n_crit = shape
    dms, alts, crits = _labels("DM", n_dm), _labels("A", n_alt), _labels("C", n_crit)
    doc: dict = {"schema_version": "1", "frame": ["IS", "NS"], "alternatives": alts, "criteria": crits}
    if "user" in weight_forms:
        doc["scales"] = USER_SCALE
    doc["decision_makers"] = [
        {
            "name": dm,
            "weight": _weight(rng, rng.choice(weight_forms)),
            "criterion_weights": [_weight(rng, rng.choice(weight_forms)) for _ in crits],
        }
        for dm in dms
    ]
    quality = [rng.uniform(0.15, 0.85) for _ in alts]
    doc["ratings"] = {
        dm: {
            alt: {crit: _triple(rng, quality[a], rounded) for crit in crits}
            for a, alt in enumerate(alts)
        }
        for dm in dms
    }
    return doc


def encode(doc: dict) -> bytes:
    return json.dumps(doc).encode("utf-8")


def _cells(shape: tuple[int, int, int]) -> int:
    return shape[0] * shape[1] * shape[2]


# --- malformed documents --------------------------------------------------------


def _malformed(rng: random.Random, kind: str) -> bytes:
    """A document that the loader must reject with a diagnostic."""
    doc = problem(rng, (2, 3, 2), ("interval", "crisp"))
    if kind == "truncated":
        data = encode(doc)
        return data[: rng.randrange(10, len(data) - 10)]
    if kind == "nan_literal":
        return encode(doc).replace(b'"weight": ', b'"weight": NaN, "x": ', 1)
    if kind == "bad_version":
        doc["schema_version"] = "2"
    elif kind == "missing_ratings":
        del doc["ratings"]
    elif kind == "bad_sum":
        doc["ratings"]["DM1"]["A1"]["C1"] = [0.6, 0.3, 0.3]
    elif kind == "negative_weight":
        doc["decision_makers"][1]["weight"] = [-0.2, 0.4]
    elif kind == "unknown_term":
        doc["decision_makers"][0]["weight"] = {"term": "Enormous", "scale": "kaufmann-tfn"}
    else:
        raise ValueError(kind)
    return encode(doc)


MALFORMED_KINDS = (
    "truncated",
    "nan_literal",
    "bad_version",
    "missing_ratings",
    "bad_sum",
    "negative_weight",
    "unknown_term",
)


def _defect(rng: random.Random, kind: str) -> bytes:
    """A document of one of the KNOWN_DEFECT_CLASSES."""
    doc = problem(rng, (2, 3, 2), ("interval", "crisp"))
    if kind == "duplicate_key":
        text = encode(doc).decode()
        triple = json.dumps(doc["ratings"]["DM1"]["A1"]["C1"])
        return text.replace(f'"C1": {triple}', f'"C1": {triple}, "C1": [0.1, 0.8, 0.1]', 1).encode()
    if kind == "huge_weight":
        return _replace_first_weight(doc, "1" + "0" * 400)
    if kind == "long_integer":
        return _replace_first_weight(doc, "7" * 5000)
    if kind == "lone_surrogate":
        text = encode(doc).decode()
        return text.replace('"A1"', '"A1\\ud800"').encode()
    raise ValueError(kind)


def _replace_first_weight(doc: dict, literal: str) -> bytes:
    doc["decision_makers"][0]["weight"] = "__W__"
    return encode(doc).replace(b'"__W__"', literal.encode(), 1)


# --- workloads --------------------------------------------------------------------

#: Shapes (decision makers, alternatives, criteria). Sizes are fixed per
#: workload so that runs with different seeds do the same amount of work;
#: the seed chooses the contents. The weight forms, alpha level and rating
#: rounding of each document follow its place in the cycle, not the seed,
#: since they change the work the loader does.
#:
#: The median and the p90 of op latency must not fall at a gap between two
#: sizes, where a small change of speed moves them from one shape to the
#: next. So each in-process cycle is a few small shapes of varied size
#: (about a fifth of its ops), a core of identical shapes (about three
#: fifths) that holds the median in its middle, and an upper group of
#: identical larger shapes (about a fifth) that holds the p90.
LARGE = (8, 400, 16)  # 51 200 cells
BATCH = (
    ((2, 10, 4), (2, 15, 6), (3, 15, 6), (2, 25, 6), (3, 20, 8), (2, 30, 8))
    + ((3, 40, 10),) * 22  # core: 1 200 cells
    + ((4, 60, 12),) * 8  # upper: 2 880 cells
    + (LARGE,)
)
TRACE = (
    ((2, 20, 6), (2, 25, 8), (3, 20, 8), (2, 30, 10), (3, 30, 8))
    + ((3, 45, 10),) * 15  # core: 1 350 cells
    + ((4, 55, 10),) * 5  # upper: 2 200 cells
)
INGEST = (
    ((2, 20, 6), (3, 25, 8), (4, 30, 8), (3, 40, 10), (4, 45, 10))
    + ((4, 60, 10),) * 15  # core: 2 400 cells, rounded triples (the rescale path)
    + (LARGE,) * 4  # upper: full-precision triples
)
CLI_SHAPES = tuple((1 + i % 4, 2 + 5 * i % 11, 1 + 5 * i % 6) for i in range(12))  # up to 4x12x6
#: The full-trace JSON runs are the slowest CLI ops; they share one shape so
#: that the p90 falls inside them.
CLI_TRACE_SHAPE = (4, 12, 6)
#: Shapes of the digest gate and of the smoke tests.
GATE = ((4, 60, 10), (2, 30, 6), (3, 35, 8))
TINY = ((2, 3, 2),)

BATCH_FORMS = (("interval",), ("crisp",), ("interval", "crisp"))
TRACE_FORMS = (("interval",), ("interval", "crisp", "kaufmann"))
INGEST_FORMS = (("kaufmann",), ("user",), ("kaufmann", "user", "interval"))
INGEST_ALPHAS = (0.25, 0.5, 0.75)
CLI_FORMS = (("interval",), ("crisp", "interval"), ("kaufmann", "interval"))


def make_docs(workload: str, seed: int, scale: str = "full") -> list[Doc]:
    """The cycle of documents a workload runs, in order. ``scale`` is "full"
    for measured runs, or "gate" or "tiny" for the smaller shape lists of the
    digest gate and the smoke tests."""
    rng = _rng(f"{workload}:{scale}", seed)
    if workload == "cli_small":
        return _cli_docs(rng, 3 if scale == "tiny" else 12)
    shapes = {"full": {"batch_rank": BATCH, "trace_json": TRACE, "ingest": INGEST}[workload], "gate": GATE, "tiny": TINY}[scale]
    docs = []
    for i, shape in enumerate(shapes):
        cells = _cells(shape)
        if workload == "batch_rank":
            doc, alpha, norm = problem(rng, shape, BATCH_FORMS[i % 3]), 0.0, POOLED
        elif workload == "trace_json":
            doc, alpha, norm = problem(rng, shape, TRACE_FORMS[i % 2]), 0.0, PER_DM
        else:
            rounded = shape != LARGE if scale == "full" else i % 2 == 0
            doc, alpha, norm = problem(rng, shape, INGEST_FORMS[i % 3], rounded=rounded), INGEST_ALPHAS[i % 3], POOLED
        docs.append(Doc(f"{workload}-{i}", encode(doc), OK, doc, cells, alpha, norm))
    if workload == "ingest":
        # One document per cycle is rejected at its very last rating, after a
        # full parse. It is made like the core documents around it.
        bad = problem(rng, shapes[len(shapes) // 2], ("kaufmann",), rounded=scale == "full")
        last = bad["ratings"][bad["decision_makers"][-1]["name"]][bad["alternatives"][-1]]
        last[bad["criteria"][-1]] = [0.5, 0.5, 0.1]
        docs.insert(len(docs) // 2, Doc(f"{workload}-bad", encode(bad), REJECT, alpha=0.5))
    return docs


def _cli_docs(rng: random.Random, n_generated: int) -> list[Doc]:
    """Seeded small problems under each subcommand, the bundled dataset,
    malformed documents that must be rejected, and the known-defect slice."""
    commands = (
        ("solve", "--input", "{input}"),
        ("solve", "--trace", "--format", "json", "--input", "{input}"),
        ("validate", "--input", "{input}"),
    )
    docs = []
    for i, shape in enumerate(CLI_SHAPES[:n_generated]):
        argv = commands[i % len(commands)]
        if "--trace" in argv:
            shape = CLI_TRACE_SHAPE
        doc = problem(rng, shape, CLI_FORMS[i % 3], rounded=i % 2 == 0)
        alpha, norm = 0.0, POOLED
        if argv[0] == "solve" and i % 4 == 1:
            alpha = 0.25
            argv = argv + ("--alpha", str(alpha))
        if argv[0] == "solve" and i % 5 == 3:
            norm = PER_DM
            argv = argv + ("--criterion-normalization", norm)
        docs.append(Doc(f"cli-{i}", encode(doc), OK, doc, _cells(shape), alpha, norm, argv))
    docs.append(Doc("cli-demo", b"", OK, None, 72, argv=("demo",), meta={"bundled": True}))
    docs.append(Doc("cli-bundled", b"", OK, None, 72, argv=commands[0], meta={"bundled": True}))
    for i, kind in enumerate(MALFORMED_KINDS):
        argv = commands[2] if i % 2 else commands[0]
        docs.append(Doc(f"cli-malformed-{kind}", _malformed(rng, kind), REJECT, argv=argv, meta={"kind": kind}))
    for kind in KNOWN_DEFECT_CLASSES:
        docs.append(Doc(f"cli-defect-{kind}", _defect(rng, kind), DEFECT, argv=commands[0], meta={"kind": kind}))
    # Interleave so that any prefix of the cycle mixes every kind of op.
    order = sorted(range(len(docs)), key=lambda i: (i * 7919) % len(docs))
    return [docs[i] for i in order]
