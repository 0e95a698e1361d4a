#!/usr/bin/env python3
"""Mutation testing: check that each guard in ``src/`` is pinned by a test or
cannot change behaviour.

Each mutant in :data:`MUTANTS` is one exact text edit of one source file.
The script copies the checkout (the files git tracks, plus untracked ones it
does not ignore, as they are in the working tree; outside a git checkout,
the tree's files less what ``.gitignore`` names) to a temporary directory
and applies the edit there. A mutant recorded as killed names a test; its
verdict holds if that test, run alone, fails. A mutant recorded as
equivalent holds if the whole tier-1 suite passes: its written argument
says why no input can tell it apart.

pytest does not collect this file. CI runs it on one Python version,
after tier-1; run it from the repository root:

    python3 tests/mutants.py

It runs every mutant, two at a time, prints one line per mutant, and exits
1 if any verdict does not hold or any edit no longer applies. To run one
mutant, call ``run(mutant, _checkout_files())``.
"""

from __future__ import annotations

import fnmatch
import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
PYTEST = ["-m", "pytest", "-q", "-p", "no:cacheprovider"]
MAX_JOBS = 2


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    killed_by: str | None = None  # a test id that fails on the mutant
    equivalent: str | None = None  # why no input tells the mutant apart


_NEGATIVE_CELL = ("tests/test_loading.py::TestRatingCellDiagnostics::test_rejection_names_the_cell[[0.6, -0.2, 0.6]-"
                  "ValidationError-ratings['DM2']['Supplier3']['C2'][1]: mass must be non-negative, got -0.2]")

MUTANTS = [
    # --- evidence.py: the sum policy, the clamps of both sides, the order of the sides, fold's inline shortcut,
    # its conflict bound, the step it names and its product terms
    Mutant(
        "left-clamp-skips-policy", "src/intervalfusion/evidence.py",
        "a, b, c = _settle(a, b, 0.0)", "a, b, c = a, b, 0.0",
        killed_by="tests/test_evidence.py::TestDiscount::test_each_side_is_clamped_and_settled_on_its_own[left]",
    ),
    Mutant(
        "left-clamp-keeps-negative-remainder", "src/intervalfusion/evidence.py",
        "a, b, c = _settle(a, b, 0.0)", "a, b, c = _settle(a, b, c)",
        killed_by="tests/test_evidence.py::TestDiscount::test_each_side_is_clamped_and_settled_on_its_own[left]",
    ),
    Mutant(
        "right-clamp-skips-policy", "src/intervalfusion/evidence.py",
        "d, e, f = _settle(d, e, 0.0)", "d, e, f = d, e, 0.0",
        killed_by="tests/test_evidence.py::TestDiscount::test_each_side_is_clamped_and_settled_on_its_own[right]",
    ),
    Mutant(
        "right-clamp-keeps-negative-remainder", "src/intervalfusion/evidence.py",
        "d, e, f = _settle(d, e, 0.0)", "d, e, f = _settle(d, e, f)",
        killed_by="tests/test_evidence.py::TestDiscount::test_each_side_is_clamped_and_settled_on_its_own[right]",
    ),
    Mutant(
        "discount-swaps-sides", "src/intervalfusion/evidence.py",
        "out += a, b, c, d, e, f", "out += d, e, f, a, b, c",
        killed_by="tests/test_pipeline.py::TestDiscountIntervalBPA::test_dm_level_row",
    ),
    # the same clamp, written a second time inside fold's weighted walk
    Mutant(
        "weighted-fold-clamp-skips-policy", "src/intervalfusion/evidence.py",
        "a2, b2, c2 = _settle(a2, b2, 0.0)", "a2, b2, c2 = a2, b2, 0.0",
        killed_by="tests/test_evidence.py::TestRowKernelParity::test_weighted_fold",
    ),
    Mutant(
        "weighted-fold-clamp-keeps-negative-remainder", "src/intervalfusion/evidence.py",
        "a2, b2, c2 = _settle(a2, b2, 0.0)", "a2, b2, c2 = _settle(a2, b2, c2)",
        killed_by="tests/test_evidence.py::TestRowKernelParity::test_weighted_fold",
    ),
    Mutant(
        "weighted-fold-first-source-undiscounted", "src/intervalfusion/evidence.py",
        "if w is not None:", "if w is not None and a1 is not None:",
        killed_by="tests/test_evidence.py::TestRowKernelParity::test_weighted_fold",
    ),
    Mutant(
        "fold-band-is-exact-band", "src/intervalfusion/evidence.py",
        "if -_PLAIN_SUM_TOLERANCE <= a + b + c - 1.0 <= _PLAIN_SUM_TOLERANCE:",
        "if -EXACT_SUM_TOLERANCE <= a + b + c - 1.0 <= EXACT_SUM_TOLERANCE:",
        killed_by="tests/test_evidence.py::TestRowKernelParity::test_fold",
    ),
    Mutant(
        "fold-without-shortcut", "src/intervalfusion/evidence.py",
        "if -_PLAIN_SUM_TOLERANCE <= a + b + c - 1.0 <= _PLAIN_SUM_TOLERANCE:", "if False:",
        # the masses are the same (test_shortcut_matches_fsum_policy pins the
        # premise); the test that counts _settle's traffic tells it apart
        killed_by="tests/test_evidence.py::test_bundled_dataset_takes_the_inline_sum_check",
    ),
    Mutant(
        "settle-exact-edge-inclusive", "src/intervalfusion/evidence.py",
        "if abs(total - 1.0) > EXACT_SUM_TOLERANCE:", "if abs(total - 1.0) >= EXACT_SUM_TOLERANCE:",
        equivalent="The comparison runs only when |total - 1| <= 1e-6, so total lies in [0.5, 2] and total - 1.0 "
        "is exact and a multiple of 2**-53. The float 1e-12 is not one, so > and >= cannot differ; "
        "tests/test_evidence.py::test_settle_never_meets_its_exact_band_edge pins the premise.",
    ),
    Mutant(
        "conflict-limit-widened", "src/intervalfusion/evidence.py",
        "_CONFLICT_LIMIT = 1.0 - TOTAL_CONFLICT_EPS", "_CONFLICT_LIMIT = 1.0 - 1e-9",
        killed_by="tests/test_evidence.py::TestCombine::test_conflict_bound_is_one_minus_total_conflict_eps",
    ),
    Mutant(
        "conflict-limit-is-one", "src/intervalfusion/evidence.py", "if k < _CONFLICT_LIMIT:", "if k < 1.0:",
        killed_by="tests/test_evidence.py::TestCombine::test_conflict_bound_is_one_minus_total_conflict_eps",
    ),
    Mutant(
        # the criterion before the one whose step raised
        "fold-step-off-by-one", "src/intervalfusion/evidence.py",
        "len(triples) - length_hint(sources) - 1", "len(triples) - length_hint(sources) - 2",
        killed_by="tests/test_degenerate.py::test_crisp_total_conflict_names_its_place[row]",
    ),
    Mutant(
        # a vacuous first source would erase the next one's mass on {IS}
        "fold-drops-ideal-cross-term", "src/intervalfusion/evidence.py",
        "a = (a1 * a2 + a1 * c2 + c1 * a2) / norm", "a = (a1 * a2 + a1 * c2) / norm",
        killed_by="tests/test_properties.py::test_vacuous_first_criterion_changes_no_bet",
    ),
    Mutant(
        "renormalization-tolerance-widened", "src/intervalfusion/evidence.py",
        "RENORMALIZATION_TOLERANCE = 1e-6", "RENORMALIZATION_TOLERANCE = 1e-5",
        killed_by="tests/test_evidence.py::TestDiscount::test_a_negative_complement_is_clamped_and_settled[outside-1e-6]",
    ),
    # --- pipeline.py: the cached views, the all-zero group, the normalizing division, the crisp shortcut and the bet
    Mutant(
        "ratings-view-uncached", "src/intervalfusion/pipeline.py",
        "value = obj.__dict__[self.name] = self.build(obj)", "value = self.build(obj)",
        killed_by="tests/test_pipeline.py::TestRatingsView::test_second_read_is_the_first",
    ),
    Mutant(
        # a data descriptor comes before the instance's __dict__, so every read
        # enters the pause, even once the value is kept
        "cached-read-pauses", "src/intervalfusion/pipeline.py",
        "    @_nogc\n    def __get__(self, obj, cls=None):\n        if obj is None:\n            return self\n",
        "    def __set__(self, obj, value):\n        raise AttributeError(self.name)\n\n"
        "    @_nogc\n    def __get__(self, obj, cls=None):\n        if obj is None:\n            return self\n"
        "        if self.name in obj.__dict__:\n            return obj.__dict__[self.name]\n",
        killed_by="tests/test_pipeline.py::TestRatingsView::test_a_later_read_switches_no_collector",
    ),
    Mutant(
        # a per-dm group that is all zero would divide by zero
        "normalize-all-zero-unguarded", "src/intervalfusion/pipeline.py",
        "    if a_max <= 0.0:\n        raise AllZeroWeights(\"all weights in the group are zero\")\n", "",
        killed_by="tests/test_pipeline.py::TestRankAlternatives::test_failure_names_its_coordinates"
        "[per-dm-normalization]",
    ),
    Mutant(
        # a crisp decision maker weight would fold the left parts of fusions
        # made under interval criterion weights as both parts
        "crisp-shortcut-on-weights-alone", "src/intervalfusion/pipeline.py",
        "    if los == his and lefts == rights:\n        fused = fold(lefts, los)\n",
        "    if los == his:\n        fused = fold(lefts, los)\n",
        killed_by="tests/test_degenerate.py::test_a_crisp_weight_costs_one_discount_and_one_fold"
        "[interval-criteria-crisp-dms-0-36]",
    ),
    Mutant(
        # an endpoint one rounding off wherever x * (1 / a) is not x / a; the
        # per-object reference divides by the largest endpoint itself
        "normalize-by-reciprocal", "src/intervalfusion/pipeline.py",
        "Interval(w.lo / a_max, w.hi / a_max)", "Interval(w.lo * (1.0 / a_max), w.hi * (1.0 / a_max))",
        killed_by="tests/test_degenerate.py::test_kernel_matches_per_object_fold[pooled-mixed]",
    ),
    Mutant(
        "bet-halves-by-product", "src/intervalfusion/pipeline.py",
        "return first + full / 2.0", "return first + full * 0.5",
        equivalent="x / 2.0 and x * 0.5 are both the correctly rounded value of x/2, so they are the same float "
        "for every float x.",
    ),
    # --- loading.py: endpoint order, label uniqueness, criterion weight count, weight sign, rating sign on both
    # paths, rating sum and rescale, zero sign, decoded rows, alpha
    Mutant(
        "endpoint-tolerance-widened", "src/intervalfusion/loading.py",
        "ENDPOINT_TOLERANCE = 1e-12", "ENDPOINT_TOLERANCE = 1e-9",
        killed_by="tests/test_loading.py::TestWeightForms::test_inversion_collapses_up_to_the_endpoint_tolerance",
    ),
    Mutant(
        # a pair inverted within the tolerance would load as it is, an Interval with lo > hi
        "endpoint-inversion-kept", "src/intervalfusion/loading.py",
        "        hi = lo\n    return Interval(lo, hi)\n", "    return Interval(lo, hi)\n",
        killed_by="tests/test_loading.py::TestLoaderEstablishesEveryInvariant::test_holds_every_problem_invariant"
        "[inverted-within-tolerance]",
    ),
    Mutant(
        # a repeated criterion would load, and its rating fuse twice
        "label-list-not-unique", "src/intervalfusion/loading.py",
        "    if len(set(labels)) != len(labels):\n        raise SchemaError(f\"{where}: labels must be unique\")\n", "",
        killed_by="tests/test_loading.py::TestDocumentStructure::test_duplicate_alternatives",
    ),
    Mutant(
        # a weight of no criterion would load, and could set its normalization group's largest endpoint
        "loader-criterion-weights-length-unchecked", "src/intervalfusion/loading.py",
        "        if len(ws) != len(criteria):\n"
        "            raise SchemaError(f\"{where}.criterion_weights: expected {len(criteria)} entries, "
        "got {len(ws)}\")\n",
        "",
        killed_by="tests/test_loading.py::TestDocumentStructure::test_criterion_weight_count_mismatch",
    ),
    Mutant(
        "loader-weight-sign-loosened", "src/intervalfusion/loading.py",
        "    if iv.lo < 0:", "    if iv.lo < -1e-300:",
        killed_by="tests/test_loading.py::TestWeightForms::test_smallest_negative_weight_rejected[crisp]",
    ),
    Mutant(
        "rating-sum-tolerance-widened", "src/intervalfusion/loading.py",
        "RATING_SUM_TOLERANCE = 1e-3", "RATING_SUM_TOLERANCE = 2e-3",
        killed_by="tests/test_loading.py::TestRatingCellDiagnostics::test_rejection_names_the_cell[[0.5, 0.4, 0.0989]-"
        "ValidationError-ratings['DM2']['Supplier3']['C2']: masses sum to 0.9989, expected 1]",
    ),
    Mutant(
        "loader-sum-edge-inclusive", "src/intervalfusion/loading.py",
        "if abs(total - 1.0) > RATING_SUM_TOLERANCE:", "if abs(total - 1.0) >= RATING_SUM_TOLERANCE:",
        equivalent="The two differ only on a total with abs(total - 1.0) == 1e-3. Such a total lies in [0.5, 2], "
        "where total - 1.0 is exact and a multiple of 2**-53. The float 1e-3 is not one: times 2**53 it leaves a "
        "denominator of 128. So no total meets the edge, as with _settle's exact band.",
    ),
    Mutant(
        # the loader is the one checker of a rating: a negative mass would reach the kernel
        "loader-mass-sign-unchecked", "src/intervalfusion/loading.py",
        "            for i, x in enumerate(value):\n                if x < 0:\n"
        "                    raise ValidationError(f\"{where}[{i}]: mass must be non-negative, got {x}\")\n",
        "",
        killed_by=_NEGATIVE_CELL,
    ),
    Mutant(
        # three floats skip the slow path, so its sign check never sees them
        "loader-fast-path-admits-negative", "src/intervalfusion/loading.py",
        "0.0 <= b < _INF", "-1.0 <= b < _INF",
        killed_by=_NEGATIVE_CELL,
    ),
    Mutant(
        # a rounded triple would load as it is, a sum the kernel's policy divides or rejects
        "loader-skips-rescale", "src/intervalfusion/loading.py",
        "if total != 1.0:", "if False:",
        killed_by="tests/test_properties.py::test_loaded_cells_are_settled",
    ),
    Mutant(
        "loader-keeps-negative-zero", "src/intervalfusion/loading.py",
        "row.append((a or 0.0, b or 0.0, c or 0.0))", "row.append((a, b, c))",
        killed_by="tests/test_loading.py::TestRatingCellDiagnostics::test_accepted_cell_masses[[-0.0, 1, 0]-masses2]",
    ),
    Mutant(
        "loader-keeps-decoded-rows", "src/intervalfusion/loading.py",
        "            dm_obj[alt] = None  # the decoded row, freed: the document shrinks as the triples grow\n", "",
        killed_by="tests/test_loading.py::test_load_peaks_at_the_decoded_document[6000-cells]",
    ),
    Mutant(
        "alpha-any-float", "src/intervalfusion/loading.py",
        "level = to_float(alpha)", "level = float(alpha)",
        killed_by="tests/test_intervals.py::TestConstruction::test_int_too_long_for_repr_named_in_message[alpha]",
    ),
    Mutant(
        "alpha-no-lower-bound", "src/intervalfusion/loading.py",
        "if not 0.0 <= level <= 1.0:", "if not level <= 1.0:",
        killed_by="tests/test_terms.py::TestAlphaCut::test_invalid_alpha[below]",
    ),
    # --- reporting.py: a full trace rendered one row at a time, each row + 0.0 in a human table
    Mutant(
        # the same bytes, from the kept cells table in one template: memory
        # that grows with the rows
        "writer-renders-whole-cells-table", "src/intervalfusion/reporting.py",
        "            template = templates[key]\n",
        "            template = templates[key]\n"
        '            if key == "cells":\n'
        '                yield sep + _key(key) + _floats(\n'
        '                    "  ", 3, *[[x.replace("%", "%%") for x in keys] for keys in labels], crits, sides\n'
        "                ) % tuple(_flat(_flat(_flat(_flat(report.cells)))))\n"
        "                continue\n",
        killed_by="tests/test_reporting.py::test_full_trace_renders_in_memory_that_does_not_grow_with_the_rows[json]",
    ),
    Mutant(
        # its human twin
        "human-renders-whole-cells-table", "src/intervalfusion/reporting.py",
        "            for head, floats in zip((head + key for head in heads for key in labels[-1]), rows):\n",
        "            heads = [head + key for head in heads for key in labels[-1]]\n"
        '            if name == "cells":\n'
        '                yield "".join([head.join(lines[name]) for head in heads]) % tuple(\n'
        "                    [x + 0.0 for x in _flat(_flat(_flat(_flat(report.cells))))])\n"
        "                heads = []\n"
        "            for head, floats in zip(heads, rows):\n",
        killed_by="tests/test_reporting.py::test_full_trace_renders_in_memory_that_does_not_grow_with_the_rows"
        "[human-table]",
    ),
    Mutant(
        "human-keeps-negative-zero", "src/intervalfusion/reporting.py",
        "% tuple([x + 0.0 for x in floats])", "% tuple(floats)",
        killed_by="tests/test_reporting.py::TestWriterMatchesJsonDumps::"
        "test_escaped_labels_negative_zero_subnormal_and_17_digits[0]",
    ),
    # --- cli.py: alpha's range, stdout through its descriptor, an in-memory stdout given the text, an open
    # descriptor named by its path, the process entry's freeze
    Mutant(
        # -0.5 would reach the loader and exit 1 as InvalidAlpha, not 2 as a usage error
        "alpha-usage-no-lower-bound", "src/intervalfusion/cli.py",
        "if not 0.0 <= value <= 1.0:", "if not value <= 1.0:",
        killed_by="tests/test_cli.py::TestSolve::test_alpha_usage_error",
    ),
    Mutant(
        # text stdout's buffer holds the summary until the interpreter exits,
        # and a failed flush there exits 120; an ascii stdout cannot encode
        # the demo's "≻" (TestDemo::test_demo_to_ascii_stdout kills it too)
        "stdout-written-as-text", "src/intervalfusion/cli.py",
        "fd = sys.stdout.fileno()", "raise ValueError",
        killed_by="tests/test_cli.py::TestStdoutFailures::test_stdout_on_a_full_device[summary-buffered]",
    ),
    Mutant(
        # an io.StringIO has no binary buffer
        "in-memory-stdout-through-buffer", "src/intervalfusion/cli.py",
        "sys.stdout.writelines(chunks)", "sys.stdout.buffer.writelines(chunk.encode() for chunk in chunks)",
        killed_by="tests/test_cli.py::TestInMemoryStdout::test_demo",
    ),
    Mutant(
        "fd-path-not-a-descriptor", "src/intervalfusion/cli.py",
        'if head in ("/dev/fd", "/proc/self/fd") and name.isdigit():', "if False:",
        killed_by="tests/test_cli.py::TestSolve::test_output_to_an_inherited_descriptor_appends",
    ),
    Mutant(
        # the file stderr has open would be replaced by a renamed temporary file
        "descriptor-skips-stderr", "src/intervalfusion/cli.py", "for fd in (1, 2):", "for fd in (1,):",
        killed_by="tests/test_cli.py::TestSolve::test_output_to_stderr_opened_for_append_appends[/dev/stderr]",
    ),
    Mutant(
        # a line the caller printed would reach a buffered stdout after the CLI's own
        "output-skips-stdout-flush", "src/intervalfusion/cli.py",
        "        if sys.stdout:\n            sys.stdout.flush()\n", "",
        killed_by="tests/test_cli.py::TestValidate::test_a_line_the_caller_printed_comes_first",
    ),
    Mutant(
        # every in-process caller of main would leave its objects frozen
        "freeze-moved-into-main", "src/intervalfusion/cli.py",
        "    try:\n        sys.exit(main())\n    finally:\n        gc.freeze()\n\n\n"
        "def main(argv: list[str] | None = None) -> int:\n",
        "    sys.exit(main())\n\n\ndef main(argv: list[str] | None = None) -> int:\n    gc.freeze()\n",
        killed_by="tests/test_cli.py::TestProcessEntry::test_main_freezes_nothing[validate]",
    ),
    Mutant(
        # the exit-time collections walk everything the import and the command built
        "entry-not-frozen", "src/intervalfusion/cli.py",
        "    try:\n        sys.exit(main())\n    finally:\n        gc.freeze()\n", "    sys.exit(main())\n",
        killed_by="tests/test_cli.py::TestProcessEntry::test_process_exits_frozen_with_mains_outcome[validate]",
    ),
]


def _checkout_files() -> list[str]:
    """The files git tracks, plus untracked ones it does not ignore. Where
    git cannot list them, as in a ``git archive`` copy, every file under the
    root but ``.git`` and what ``.gitignore`` names."""
    try:
        out = subprocess.run(["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
                             cwd=ROOT, capture_output=True, check=True).stdout
    except (OSError, subprocess.CalledProcessError):
        return _tree_files()
    return [name for name in out.decode().split("\0") if name and (ROOT / name).is_file()]


def _tree_files() -> list[str]:
    """The files under the root, less ``.git`` and the paths that the root's
    ``.gitignore`` names: a pattern that starts with "/" matches the path
    from the root, any other the last part of it, and one that ends in "/"
    only a directory."""
    ignore = ROOT / ".gitignore"
    lines = ignore.read_text(encoding="utf-8").splitlines() if ignore.is_file() else []
    patterns = [line.strip() for line in lines if line.strip() and not line.startswith("#")]

    def ignored(path: str, is_dir: bool) -> bool:
        return any(fnmatch.fnmatchcase(path if p.startswith("/") else path.rpartition("/")[2], p.strip("/"))
                   for p in patterns if is_dir or not p.endswith("/"))

    files = []
    for top, dirs, names in os.walk(ROOT):
        prefix = Path(top).relative_to(ROOT).as_posix() + "/" if Path(top) != ROOT else ""
        dirs[:] = [d for d in dirs if d != ".git" and not ignored(prefix + d, True)]
        files += [prefix + name for name in names if not ignored(prefix + name, False)]
    return sorted(files)


def run(mutant: Mutant, files: list[str]) -> tuple[bool, str]:
    """Apply ``mutant`` to a fresh copy of the checkout and run its test, or
    tier-1 for an equivalent mutant, there; whether its verdict holds, and
    what was seen."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp)
        for name in files:
            (copy / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / name, copy / name)
        target = copy / mutant.path
        text = target.read_text(encoding="utf-8")
        if text.count(mutant.old) != 1:
            return False, f"edit does not apply: {text.count(mutant.old)} matches of its text"
        target.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        tests = [mutant.killed_by] if mutant.killed_by else ["-x"]
        result = subprocess.run([sys.executable, *PYTEST, f"--basetemp={copy / '.pytest-tmp'}", *tests], cwd=copy,
                                env=env, capture_output=True, text=True, timeout=1800)
    if mutant.killed_by:
        if result.returncode == 1:
            return True, f"killed by {mutant.killed_by}"
        return False, f"expected {mutant.killed_by} to fail; exit {result.returncode}"
    if result.returncode == 0:
        return True, "equivalent: tier-1 passes"
    return False, f"recorded as equivalent, but tier-1 exits {result.returncode}"


def main() -> int:
    files = _checkout_files()
    started = time.perf_counter()

    def timed(mutant):
        t0 = time.perf_counter()
        held, seen = run(mutant, files)
        return held, seen, time.perf_counter() - t0

    failures = 0
    with ThreadPoolExecutor(MAX_JOBS) as pool:
        for mutant, (held, seen, seconds) in zip(MUTANTS, pool.map(timed, MUTANTS)):
            failures += not held
            print(f"{'ok ' if held else 'BAD'} {mutant.name} ({seconds:.1f} s): {seen}", flush=True)
    print(f"{len(MUTANTS) - failures}/{len(MUTANTS)} verdicts hold in {time.perf_counter() - started:.1f} s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
