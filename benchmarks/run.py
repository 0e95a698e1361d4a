"""Benchmark of the intervalfusion engine, end to end and layer by layer.

Run from the root of a checkout (stdlib only; the package is imported from
``src/``):

    python3 benchmarks/run.py --workload batch_rank --seed 1 --seconds 20 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 5 --trace 0

Workloads (see BENCHMARK.json for why each was chosen):

* ``cli_small``  — sequential ``python -m intervalfusion`` processes
  (``solve``, ``solve --trace --format json``, ``validate``, ``demo``) on
  seeded small problems, the bundled dataset, malformed documents and the
  known-defect slice;
* ``batch_rank`` — in process, load -> rank -> summary table on mid-size
  problems and one 8x400x16 problem per cycle;
* ``trace_json`` — in process, load -> rank (per-dm) -> full-trace JSON;
* ``ingest``     — in process, ``load_problem`` only, on four 8x400x16
  documents with full-precision rating triples and 21 smaller ones with
  4-decimal rounded triples per cycle, with linguistic weights at
  alpha > 0.

Each workload is a closed loop with one caller that runs whole cycles of
its document list until ``--seconds`` have passed and it has run at least
100 ops, so every run times the same mix of documents. An op is one
document through the workload's path; a cell is one (decision maker,
alternative, criterion) rating. Checks run between ops and are not timed;
rates are per second of op time.

Op times are reported at a fixed host speed. The shared machine the
benchmark runs on has phases of a minute or more in which the same code
runs up to 1.8 times slower, so raw times of runs minutes apart differ by
more than a change worth detecting. After every op the run times a
reference of the same kind that uses nothing from the package: for
``cli_small`` a bare ``python -c pass``, in process the benchmark's own
plain-Python recomputation (``oracle.py``) of one fixed document. Each op's
time is multiplied by the reference's nominal time (``REFERENCE_S``) over
the mean of the reference times just before and after it. A change to the
program moves the scaled times as much as the raw ones, while a phase of
the host moves op and reference alike. Each set-up time is scaled the same
way by the bare interpreter start timed right after it. The raw figures
are printed beside the scaled ones.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (median over
fresh processes of the time from spawn to the end of ``import
intervalfusion`` plus one warm-up op; for ``cli_small``, to the end of
``import intervalfusion.cli``), ``latency_p50_s``, ``latency_p90_s``,
``ops_per_s``, ``cells_per_s``, ``peak_rss_mib`` (of the benchmark process;
for ``cli_small`` the largest child) and ``ok_share`` (ops whose outcome
meets the fail-closed contract, over ops attempted).

``--trace 1`` runs half the time untraced and half traced (see spans.py)
and prints the per-layer metrics: per-op means of each layer's time and
counts, and ``trace.overhead_share``. Layer self times plus
``trace.unattributed_s`` sum to ``trace.op_wall_s``.

Output gate: every run checks the bundled dataset against
``tests/golden/supplier_selection_expected.json``, a fixed gate set of
documents against the SHA-256 digests in ``digests.json``, every seeded
document against the independent recomputation in ``oracle.py``, every op
against the first result for the same document, and CLI stdout against the
in-process ``emit_report`` bytes. On any mismatch the run prints
``"correct": false`` and exits with code 1.

``--record-digests`` recomputes ``digests.json`` from the current program;
run it only when a change to the bets is intended.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import docgen
import oracle
from docgen import DEFECT, OK, REJECT, Doc
from ops import IN_PROCESS, run_op

BENCH = Path(__file__).resolve().parent
DIGESTS = BENCH / "digests.json"
WORKLOADS = ("cli_small",) + IN_PROCESS
GATE_SEED = 0
#: Fresh processes per set-up, import and interpreter measurement. They are
#: spread evenly over the measured loop: process start on a shared machine
#: drifts over seconds, and one burst of probes would see a single phase of it.
PROBES = 9
#: Ops a measured run completes at least, so that ten samples lie above its p90.
MIN_OPS = 100
#: Shape of the fixed in-process reference document (see the module docstring).
REFERENCE_SHAPE = (3, 40, 10)
#: Seconds each reference took on the 2-CPU machine the benchmark was tuned on.
REFERENCE_S = {"cli": 0.06, "in_process": 0.004}
LOADER_ERRORS = ("ParseError", "SchemaError", "ValidationError")


class GateFailure(Exception):
    """An output did not match its digest, golden file or oracle."""


@dataclass
class Expected:
    """What the first, untimed run of a document produced and was checked against."""

    fingerprint: str | None = None  # in process: bets and ranking, or the loaded problem
    output: bytes | None = None  # in process: emit_report bytes; cli: stdout bytes
    error: str | None = None


@dataclass
class Tally:
    latencies: list[float] = field(default_factory=list)
    references: list[float] = field(default_factory=list)  # one before the first op and one after each
    cells: int = 0
    ok: int = 0
    known_defects: int = 0
    failed: int = 0
    rejected: int = 0
    bytes_out: int = 0
    json_floor: float = 0.0
    failures: list[str] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def busy(self) -> float:
        return sum(self.latencies)

    def scaled(self, nominal: float) -> list[float]:
        """Op times at the reference host speed (see the module docstring)."""
        ref = self.references
        return [t * 2 * nominal / (ref[k] + ref[k + 1]) for k, t in enumerate(self.latencies)]

    def count(self, doc: Doc, outcome: str, detail: str = "") -> None:
        if outcome == "ok":
            self.ok += 1
        elif outcome == "known":
            self.known_defects += 1
        else:
            self.failed += 1
            if len(self.failures) < 10:
                self.failures.append(f"{doc.name}: {detail}")


# --- environment ------------------------------------------------------------------


def _commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    # Every child compiles the package from source and writes nothing.
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def _wall(argv: list[str], env: dict, cwd: Path) -> float:
    start = perf_counter()
    subprocess.run(argv, env=env, cwd=cwd, check=True, stdout=subprocess.DEVNULL)
    return perf_counter() - start


def _until_line(argv: list[str], env: dict, cwd: Path) -> tuple[float, str]:
    """Seconds from spawn until the child prints its first line, and that line."""
    start = perf_counter()
    with subprocess.Popen(argv, env=env, cwd=cwd, stdout=subprocess.PIPE) as proc:
        line = proc.stdout.readline().decode()
        elapsed = perf_counter() - start
        proc.stdout.read()
    if proc.returncode != 0:
        raise RuntimeError(f"{argv[1:]} exited with {proc.returncode}")
    return elapsed, line


def _check_source(root: Path, path: str) -> None:
    if not Path(path).resolve().is_relative_to((root / "src").resolve()):
        raise RuntimeError(f"imported intervalfusion from {path}, not from {root / 'src'}")


# --- gates ------------------------------------------------------------------------


def check_golden(api, root: Path) -> None:
    golden = json.loads((root / "tests" / "golden" / "supplier_selection_expected.json").read_text())
    report = api.rank_alternatives(api.load_problem(api.bundled_dataset_bytes()))
    for a, alt in enumerate(report.alternatives):
        if not abs(report.bets[a] - golden["bets"][alt]) <= oracle.TOLERANCE:
            raise GateFailure(f"bundled dataset: bet of {alt!r} is {report.bets[a]!r}, golden {golden['bets'][alt]!r}")
    if list(report.ranking) != golden["ranking"]:
        raise GateFailure(f"bundled dataset: ranking {report.ranking} differs from the golden file")


def _loaded_floats(problem):
    ratings = [
        [[(m.mass_of_mask(1), m.mass_of_mask(2), m.mass_of_mask(3)) for m in row] for row in dm]
        for dm in problem.ratings
    ]
    return (
        [(w.lo, w.hi) for w in problem.dm_weights],
        [[(w.lo, w.hi) for w in ws] for ws in problem.criterion_weights],
        ratings,
    )


def fingerprint(problem, report) -> str:
    if report is None:
        return oracle.problem_fingerprint(*_loaded_floats(problem))
    return oracle.ranking_fingerprint(report.bets, report.ranking)


def in_process_result(api, workload: str, doc: Doc) -> Expected:
    """Run a document once, untimed, and check it against the oracle."""
    try:
        problem, report, output = run_op(api, workload, doc.data, doc.alpha, doc.normalization)
    except api.IntervalFusionError as exc:
        if doc.expect != REJECT or type(exc).__name__ not in LOADER_ERRORS:
            raise GateFailure(f"{doc.name}: unexpected {type(exc).__name__}: {exc}") from exc
        return Expected(error=type(exc).__name__)
    if doc.expect != OK:
        raise GateFailure(f"{doc.name}: expected a rejection, got a result")
    if report is None:
        problems = oracle.check_loaded(doc.body, doc.alpha, *_loaded_floats(problem))
    else:
        problems = oracle.check_ranking(doc.body, doc.alpha, doc.normalization, report.bets, report.ranking)
    if problems:
        raise GateFailure(f"{doc.name}: differs from the oracle: {problems[:3]}")
    return Expected(fingerprint(problem, report), output)


def gate_digest(api, workload: str) -> str:
    """Digest of the results on the fixed gate documents of a workload."""
    fingerprints = []
    for doc in docgen.make_docs(workload, GATE_SEED, "gate"):
        if doc.expect == DEFECT or doc.meta.get("bundled"):
            continue
        path = "ingest" if workload == "ingest" else "batch_rank"
        result = in_process_result(api, path, doc)
        fingerprints.append(f"{doc.name}:{result.error or result.fingerprint}")
    return oracle.digest(fingerprints)


def check_digest(api, workload: str) -> str:
    recorded = json.loads(DIGESTS.read_text())
    got = gate_digest(api, workload)
    if recorded.get(workload) != got:
        raise GateFailure(f"gate digest of {workload} is {got}, recorded {recorded.get(workload)}")
    return got


# --- cli_small ----------------------------------------------------------------------


def cli_outcome(doc: Doc, returncode: int, stdout: bytes, stderr: bytes, expected: Expected) -> tuple[str, str]:
    """Classify one CLI run: "ok" (meets the contract), "known" (a
    known-defect document that still behaves as in the seed program) or
    "failed", with a reason."""
    lines = stderr.decode("utf-8", "replace").splitlines()
    rejected = returncode == 1 and not stdout and len(lines) == 1 and lines[0].startswith("error (")
    if doc.expect == OK:
        if returncode == 0 and stdout == expected.output and not stderr:
            return "ok", ""
        return "failed", f"exit {returncode}, stdout {'matches' if stdout == expected.output else 'differs'}"
    if rejected:
        return "ok", ""
    if doc.expect == DEFECT:
        code, exc_name = docgen.KNOWN_DEFECT_CLASSES[doc.meta["kind"]]
        traceback = bool(lines) and lines[0].startswith("Traceback") and lines[-1].startswith(f"{exc_name}:")
        if returncode == code and (code == 0 or traceback):
            return "known", ""
    return "failed", f"exit {returncode}, stderr {lines[-1:]!r}"


def cli_expected(api, doc: Doc) -> Expected:
    """The stdout a CLI run must print, computed in process."""
    if doc.expect != OK:
        return Expected()
    argv = doc.argv
    if argv[0] == "validate":
        body = doc.body
        return Expected(
            output=(
                f"valid: {len(body['decision_makers'])} decision makers, "
                f"{len(body['criteria'])} criteria, {len(body['alternatives'])} alternatives\n"
            ).encode()
        )
    problem = api.load_problem(doc.data, alpha=doc.alpha)
    report = api.rank_alternatives(problem, criterion_normalization=doc.normalization)
    if not doc.meta.get("bundled"):
        problems = oracle.check_ranking(doc.body, doc.alpha, doc.normalization, report.bets, report.ranking)
        if problems:
            raise GateFailure(f"{doc.name}: differs from the oracle: {problems[:3]}")
    full = argv[0] == "demo" or "--trace" in argv
    fmt = api.JSON_FORMAT if "json" in argv else api.HUMAN_TABLE
    return Expected(output=api.emit_report(report, mode=api.FULL_TRACE if full else api.SUMMARY, fmt=fmt))


def _cli_argv(doc: Doc, path: Path) -> list[str]:
    return [str(path) if a == "{input}" else a for a in doc.argv]


# --- the measured loop ----------------------------------------------------------------


@dataclass
class Context:
    workload: str
    root: Path
    work: Path
    api: object
    docs: list[Doc]
    expected: list[Expected]
    paths: list[Path]
    env: dict
    reference: dict | None = None  # the in-process reference document


class Probes:
    """Fresh-process measurements, each taken as the median of PROBES samples:

    * ``setup``: spawn -> package imported and one warm-up op done (the
      smallest document of the cycle); for ``cli_small``, spawn -> ``import
      intervalfusion.cli`` done;
    * ``imports``: the in-child time of ``import intervalfusion.cli``;
    * ``floor``: a bare ``python -c pass``.

    Set-up is probed in end-to-end runs, imports in traced runs.
    """

    def __init__(self, ctx: Context, trace: bool) -> None:
        self.ctx = ctx
        self.trace = trace
        self.setup: list[float] = []
        self.imports: list[float] = []
        self.floor: list[float] = []
        child = [sys.executable, str(BENCH / "child.py")]
        self.import_argv = child + ["import"]
        if ctx.workload == "cli_small":
            self.setup_argv = self.import_argv
        else:
            warm = min((i for i, d in enumerate(ctx.docs) if d.expect == OK), key=lambda i: ctx.docs[i].cells)
            doc = ctx.docs[warm]
            self.setup_argv = child + ["setup", ctx.workload, str(ctx.paths[warm]), repr(doc.alpha), doc.normalization]

    def _line(self, argv: list[str]) -> tuple[float, str]:
        elapsed, line = _until_line(argv, self.ctx.env, self.ctx.root)
        _check_source(self.ctx.root, line.split()[-1])
        return elapsed, line

    def take(self) -> None:
        if self.trace:
            self.imports.append(float(self._line(self.import_argv)[1].split()[0]))
        else:
            self.setup.append(self._line(self.setup_argv)[0])
        self.floor.append(_wall([sys.executable, "-c", "pass"], self.ctx.env, self.ctx.root))

    def scaled_setup(self) -> list[float]:
        """Set-up times at the reference host speed (see the module docstring)."""
        return [t * REFERENCE_S["cli"] / floor for t, floor in zip(self.setup, self.floor)]


def measure(ctx: Context, seconds: float, min_ops: int = 0, tracer=None, probes: Probes | None = None) -> Tally:
    """Run whole cycles of the documents until ``seconds`` have passed and
    ``min_ops`` ops are done, taking the fresh-process probes at even steps
    of ``seconds``."""
    tally = Tally()
    start = perf_counter()
    while tally.attempted == 0 or perf_counter() - start < seconds or tally.attempted < min_ops:
        for i, doc in enumerate(ctx.docs):
            if probes is not None and len(probes.floor) < PROBES and perf_counter() - start >= len(probes.floor) * seconds / PROBES:
                probes.take()
            if tracer is not None:
                begin = perf_counter()
                try:
                    json.loads(doc.data)
                except ValueError:
                    pass
                tally.json_floor += perf_counter() - begin
                tracer.op = tally.attempted
            if not tally.references:
                tally.references.append(_time_reference(ctx))
            if ctx.workload == "cli_small":
                _cli_op(ctx, i, doc, tally, tracer)
            else:
                _in_process_op(ctx, i, doc, tally, tracer)
            tally.references.append(_time_reference(ctx))
    while probes is not None and len(probes.floor) < PROBES:
        probes.take()
    return tally


def _time_reference(ctx: Context) -> float:
    if ctx.reference is None:
        return _wall([sys.executable, "-c", "pass"], ctx.env, ctx.root)
    start = perf_counter()
    oracle.bets(ctx.reference)
    return perf_counter() - start


def _in_process_op(ctx: Context, i: int, doc: Doc, tally: Tally, tracer) -> None:
    api, expected = ctx.api, ctx.expected[i]
    frame = tracer.enter("op") if tracer is not None else None
    start = perf_counter()
    error = None
    try:
        problem, report, output = run_op(api, ctx.workload, doc.data, doc.alpha, doc.normalization)
    except Exception as exc:  # counted as a failed op; the loop goes on
        error = exc
    tally.latencies.append(perf_counter() - start)
    if frame is not None:
        tracer.leave(frame)
    if error is not None:
        tally.rejected += isinstance(error, api.IntervalFusionError) and type(error).__name__ in LOADER_ERRORS
        if type(error).__name__ == expected.error:
            tally.count(doc, "ok")
        else:
            tally.count(doc, "failed", f"{type(error).__name__}: {error}")
        return
    tally.cells += doc.cells
    tally.bytes_out += len(output or b"")
    if expected.error is None and fingerprint(problem, report) == expected.fingerprint and output == expected.output:
        tally.count(doc, "ok")
    else:
        tally.count(doc, "failed", "result differs from the first run of this document")


def _cli_op(ctx: Context, i: int, doc: Doc, tally: Tally, tracer) -> None:
    args = _cli_argv(doc, ctx.paths[i])
    if tracer is None:
        argv = [sys.executable, "-m", "intervalfusion", *args]
    else:
        spans_file = ctx.work / "child-spans.json"
        argv = [sys.executable, str(BENCH / "child.py"), "cli", str(spans_file), "--", *args]
        frame = tracer.enter("op")
    start = perf_counter()
    proc = subprocess.run(argv, env=ctx.env, cwd=ctx.root, capture_output=True, timeout=60)
    end = perf_counter()
    tally.latencies.append(end - start)
    if tracer is not None:
        child = json.loads(spans_file.read_text())
        tracer.record("cli.startup", start, child["start"])
        tracer.merge(child)
        tracer.record("cli.teardown", child["end"], end)
        tracer.leave(frame)
    outcome, detail = cli_outcome(doc, proc.returncode, proc.stdout, proc.stderr, ctx.expected[i])
    tally.count(doc, outcome, detail)
    if outcome == "ok" and doc.expect == OK:
        tally.cells += doc.cells
    if proc.returncode == 1 and proc.stderr.startswith(tuple(f"error ({e})".encode() for e in LOADER_ERRORS)):
        tally.rejected += 1
    tally.bytes_out += len(proc.stdout)


# --- metrics ------------------------------------------------------------------------


def _peak_rss_mib(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cli_small" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def end_to_end(ctx: Context, tally: Tally, probes: Probes) -> tuple[dict, dict]:
    """The metrics and how many samples each rests on."""
    raw = tally.latencies
    lat = tally.scaled(REFERENCE_S["cli" if ctx.reference is None else "in_process"])
    busy = sum(lat)
    p90 = statistics.quantiles(lat, n=10)[-1]
    metrics = {
        "setup_s": (statistics.median(probes.scaled_setup()), "s"),
        "latency_p50_s": (statistics.median(lat), "s"),
        "latency_p90_s": (p90, "s"),
        "ops_per_s": (tally.attempted / busy, "1/s"),
        "cells_per_s": (tally.cells / busy, "1/s"),
        "peak_rss_mib": (_peak_rss_mib(ctx.workload), "MiB"),
        "ok_share": (tally.ok / tally.attempted, "share"),
    }
    samples = {
        "setup_s": f"median of {len(probes.setup)} fresh processes, raw {statistics.median(probes.setup):.6g} s",
        "latency_p50_s": f"n={len(lat)}, raw {statistics.median(raw):.6g} s",
        "latency_p90_s": f"n={len(lat)}, {sum(x > p90 for x in lat)} above, raw {statistics.quantiles(raw, n=10)[-1]:.6g} s",
        "ops_per_s": f"{tally.attempted} ops in {busy:.3f} s, raw {tally.busy:.3f} s",
        "cells_per_s": f"{tally.cells} cells",
        "peak_rss_mib": "largest child" if ctx.workload == "cli_small" else "benchmark process",
        "ok_share": f"{tally.ok} ok, {tally.known_defects} known defects, {tally.failed} failed",
    }
    return metrics, samples


LAYERS = ("cli", "loading", "fuzzy", "pipeline", "evidence", "reporting")


def per_layer(tracer, tally: Tally, plain: Tally, probes: Probes) -> dict:
    n = tally.attempted
    total, self_time, calls = tracer.total, tracer.self_time, tracer.calls

    def per_op(value):
        return value / n

    def layer_self(layer: str) -> float:
        return per_op(sum(v for k, v in self_time.items() if k.startswith(layer + ".")))

    op_wall = per_op(total["op"])
    unattributed = per_op(self_time["op"])
    metrics = {
        "cli.interpreter_s": (statistics.median(probes.floor), "s"),
        "cli.import_s": (statistics.median(probes.imports), "s"),
        "cli.startup_s": (per_op(total["cli.startup"]), "s"),
        "loading.load_s": (per_op(total["loading.load"]), "s"),
        "loading.json_floor_s": (per_op(tally.json_floor), "s"),
        "loading.cells": (per_op(tally.cells), "count"),
        "loading.rejected": (per_op(tally.rejected), "count"),
        "fuzzy.as_interval_calls": (per_op(calls["fuzzy.as_interval"]), "count"),
        "pipeline.rank_s": (per_op(total["pipeline.rank"]), "s"),
        "pipeline.normalize_s": (per_op(total["pipeline.normalize"]), "s"),
        "pipeline.discount_s": (per_op(total["pipeline.discount"]), "s"),
        "pipeline.fuse_dm_s": (per_op(total["pipeline.fuse_dm"]), "s"),
        "pipeline.fuse_cross_s": (per_op(total["pipeline.discount_cross"] + total["pipeline.fuse_cross"]), "s"),
        "pipeline.collapse_s": (per_op(total["pipeline.collapse"]), "s"),
        "pipeline.bet_s": (per_op(total["pipeline.bet"]), "s"),
        "pipeline.rank_self_s": (per_op(self_time["pipeline.rank"]), "s"),
        "pipeline.discounts": (per_op(calls["pipeline.discount"] + calls["pipeline.discount_cross"]), "count"),
        "pipeline.fusions": (per_op(calls["pipeline.fuse_dm"] + calls["pipeline.fuse_cross"]), "count"),
        "evidence.combine_calls": (per_op(calls["evidence.combine"]), "count"),
        "evidence.combine_s": (per_op(total["evidence.combine"]), "s"),
        "evidence.masses_built_load": (per_op(calls["evidence.masses_built.load"]), "count"),
        "evidence.masses_built_rank": (per_op(calls["evidence.masses_built.rank"]), "count"),
        "reporting.emit_s": (per_op(total["reporting.emit"]), "s"),
        "reporting.bytes_out": (per_op(tally.bytes_out), "count"),
        "runtime.gc_s": (per_op(tracer.gc_time), "s"),
        "runtime.gc_collections": (per_op(tracer.gc_collections), "count"),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (layer_self(layer), "s")
    metrics["trace.unattributed_s"] = (unattributed, "s")
    metrics["trace.op_wall_s"] = (op_wall, "s")
    metrics["trace.overhead_share"] = (1.0 - (n / tally.busy) / (plain.attempted / plain.busy), "share")
    attributed = sum(layer_self(layer) for layer in LAYERS) + unattributed
    if abs(attributed - op_wall) > 1e-9 * max(1.0, op_wall):
        raise RuntimeError(f"layer self times sum to {attributed}, op wall time is {op_wall}")
    return metrics


# --- the run ------------------------------------------------------------------------


def prepare(workload: str, seed: int, root: Path, work: Path, api) -> Context:
    docs = docgen.make_docs(workload, seed)
    paths = []
    for i, doc in enumerate(docs):
        if doc.meta.get("bundled"):
            doc.data = api.bundled_dataset_bytes()
        path = work / f"doc-{i}.json"
        path.write_bytes(doc.data)
        paths.append(path)
    if workload == "cli_small":
        expected = [cli_expected(api, doc) for doc in docs]
    else:
        expected = [in_process_result(api, workload, doc) for doc in docs]
    # The parsed documents were only needed by the oracle. Drop them and move
    # what the benchmark keeps out of the collector's reach, so that a full
    # collection during an op walks the program's objects, not the harness's.
    for doc in docs:
        doc.body = None
    reference = None
    if workload != "cli_small":
        reference = docgen.problem(random.Random("intervalfusion-bench:reference"), REFERENCE_SHAPE, ("interval", "crisp"))
    gc.collect()
    gc.freeze()
    return Context(workload, root, work, api, docs, expected, paths, child_env(root), reference)


def run(workload: str, seed: int, seconds: float, trace: bool, root: Path) -> int:
    load_before = os.getloadavg()
    launched_without_bytecode = bool(sys.flags.dont_write_bytecode)
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(root / "src"))
    import intervalfusion as api

    _check_source(root, api.__file__)
    out_dir = root / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    work = root / ".bench_work" / f"{workload}-{seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        check_golden(api, root)
        gate = check_digest(api, workload)
        ctx = prepare(workload, seed, root, work, api)
        probes = Probes(ctx, trace)
        if trace:
            from spans import Tracer, install

            plain = measure(ctx, seconds / 2, probes=probes)
            tracer = Tracer()
            if workload != "cli_small":
                install(tracer, api)
            try:
                tally = measure(ctx, seconds / 2, tracer=tracer)
            finally:
                tracer.uninstall()
            metrics = per_layer(tracer, tally, plain, probes)
            samples = {}
            tracer.write_spans(out_dir / f"spans-{workload}-seed{seed}.jsonl")
        else:
            plain = tally = measure(ctx, seconds, MIN_OPS, probes=probes)
            metrics, samples = end_to_end(ctx, tally, probes)
    except GateFailure as exc:
        print(f"GATE FAILED: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    environment = {
        "commit": _commit(root),
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_before": load_before,
        "loadavg_after": os.getloadavg(),
        "dont_write_bytecode": launched_without_bytecode,
        "children_dont_write_bytecode": True,
        "interpreter_floor_s": statistics.median(probes.floor),
        "reference_median_s": statistics.median(tally.references),
        "probes": len(probes.floor),
        "gate_digest": gate,
        "seed_docs_digest": oracle.digest(e.fingerprint or e.error or "" for e in ctx.expected),
    }
    phases = (tally,) if plain is tally else (plain, tally)
    attempted = sum(t.attempted for t in phases)
    failed = sum(t.failed for t in phases)
    print(f"workload {workload}  seed {seed}  seconds {seconds}  trace {int(trace)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:28s} {value:14.6g} {unit:6s} {samples.get(name, '')}")
    for t in phases:
        for failure in t.failures:
            print(f"  FAILED {failure}", file=sys.stderr)
    print("environment " + json.dumps(environment))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = dict(result, workload=workload, seed=seed, seconds=seconds, trace=int(trace), samples=samples, environment=environment)
    (out_dir / f"result-{workload}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def record_digests(root: Path) -> None:
    sys.path.insert(0, str(root / "src"))
    import intervalfusion as api

    _check_source(root, api.__file__)
    DIGESTS.write_text(json.dumps({w: gate_digest(api, w) for w in WORKLOADS}, indent=2) + "\n")
    print(f"wrote {DIGESTS}")


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Every workload in its own process, one after the other."""
    results, status = {}, 0
    for workload in WORKLOADS:
        argv = [sys.executable, __file__, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        results[workload] = json.loads(lines[-1]) if lines else None
        status = status or proc.returncode
    print(json.dumps(results))
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true", help="rewrite digests.json from the current program")
    args = parser.parse_args()
    root = Path.cwd()
    missing = [p for p in ("src/intervalfusion/__init__.py", "tests/golden/supplier_selection_expected.json") if not (root / p).is_file()]
    if missing:
        print(f"run from the root of an intervalfusion checkout; missing {', '.join(missing)}", file=sys.stderr)
        return 2
    if args.record_digests:
        record_digests(root)
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    return run(args.workload, args.seed, args.seconds, bool(args.trace), root)


if __name__ == "__main__":
    raise SystemExit(main())
