import contextlib
import errno
import gc
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from intervalfusion import load_problem, rank_alternatives
from intervalfusion import cli
from intervalfusion.cli import main
from intervalfusion.loading import bundled_dataset_bytes
from intervalfusion.reporting import FULL_TRACE, HUMAN_TABLE, JSON_FORMAT, SUMMARY, emit_report

from test_collector import document

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


@pytest.fixture()
def dataset_path(tmp_path):
    path = tmp_path / "problem.json"
    path.write_bytes(bundled_dataset_bytes())
    return path


class TestSolve:
    def test_summary_to_stdout(self, dataset_path, capsys):
        assert main(["solve", "--input", str(dataset_path)]) == 0
        out = capsys.readouterr().out
        assert "Ranking: Supplier4" in out
        assert "0.9908" in out

    def test_json_format(self, dataset_path, capsys):
        assert main(["solve", "--input", str(dataset_path), "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ranking"][0] == "Supplier4"

    def test_trace(self, dataset_path, capsys):
        assert main(["solve", "--input", str(dataset_path), "--trace"]) == 0
        assert "Collapsed BPAs" in capsys.readouterr().out

    def test_output_file(self, dataset_path, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        code = main(
            [
                "solve",
                "--input",
                str(dataset_path),
                "--format",
                "json",
                "--output",
                str(out_path),
            ]
        )
        assert code == 0
        assert capsys.readouterr().out == ""
        assert json.loads(out_path.read_text())["ranking"][0] == "Supplier4"

    @pytest.mark.parametrize("step", ["write", "rename"])
    def test_failed_output_write_keeps_existing_file(
        self, dataset_path, tmp_path, monkeypatch, capsys, step
    ):
        out_dir = tmp_path / "reports"
        out_dir.mkdir()
        out_path = out_dir / "report.txt"
        out_path.write_bytes(b"previous report\n")

        def disk_full(*args):
            raise OSError(errno.ENOSPC, "No space left on device")

        written = []
        if step == "write":
            # the temporary file takes the report's first chunk, and the
            # disk is full at the second
            class DiskFullAfterFirstChunk(io.BufferedWriter):
                def write(self, data):
                    if written:
                        disk_full()
                    written.append(data)
                    return super().write(data)

            monkeypatch.setattr(cli, "open", lambda file, mode: DiskFullAfterFirstChunk(io.FileIO(file, mode[0])),
                                raising=False)
        else:
            monkeypatch.setattr(os, "replace", disk_full)
        assert main(["solve", "--input", str(dataset_path), "--trace", "--output", str(out_path)]) == 1
        assert "error (IO)" in capsys.readouterr().err
        assert out_path.read_bytes() == b"previous report\n"
        assert list(out_dir.iterdir()) == [out_path]
        assert len(written) == (step == "write")

    @pytest.mark.parametrize("failure", ["missing-directory", "rename-onto-a-directory"])
    def test_failed_output_write_names_the_given_path(
        self, dataset_path, tmp_path, monkeypatch, capsys, failure
    ):
        # the error names the --output argument as given, relative or not,
        # and not the temporary file beside it
        monkeypatch.chdir(tmp_path)
        if failure == "missing-directory":
            given, code = os.path.join("missing", "report.txt"), errno.ENOENT
        else:
            given, code = "report.txt", errno.EISDIR
            real_replace = os.replace

            def replace_onto_a_new_directory(src, dst):
                os.mkdir(dst)  # the target turns into a directory after the check
                real_replace(src, dst)

            monkeypatch.setattr(os, "replace", replace_onto_a_new_directory)
        assert main(["solve", "--input", str(dataset_path), "--output", given]) == 1
        assert capsys.readouterr().err == f"error (IO): [Errno {code}] {os.strerror(code)}: {given!r}\n"
        assert not [p for p in tmp_path.rglob("*") if p.name.endswith(".tmp")]

    def test_output_to_a_device_is_written_in_place(self, dataset_path):
        # stdout a pipe, so /dev/stdout is no regular file (under capfd it is one)
        result = subprocess.run(
            [sys.executable, "-m", "intervalfusion", "solve", "--input", str(dataset_path),
             "--format", "json", "--output", "/dev/stdout"],
            capture_output=True,
            timeout=60,
        )
        assert (result.returncode, result.stderr) == (0, b"")
        report = rank_alternatives(load_problem(bundled_dataset_bytes()))
        assert result.stdout == emit_report(report, fmt=JSON_FORMAT)

    @pytest.mark.parametrize("target", ["/dev/stdout", "/dev/fd/1", "same-file"])
    def test_output_to_stdout_opened_for_append_appends(self, dataset_path, tmp_path, target):
        # `solve --output /dev/stdout >> app.txt` adds the report to app.txt
        app = tmp_path / "app.txt"
        app.write_bytes(b"previous line\n")
        with open(app, "ab") as stdout:
            result = subprocess.run(
                [sys.executable, "-m", "intervalfusion", "solve", "--input", str(dataset_path),
                 "--output", str(app) if target == "same-file" else target],
                stdout=stdout,
                stderr=subprocess.PIPE,
                timeout=60,
            )
        assert (result.returncode, result.stderr) == (0, b"")
        report = rank_alternatives(load_problem(bundled_dataset_bytes()))
        assert app.read_bytes() == b"previous line\n" + emit_report(report)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["app.txt", "problem.json"]

    @pytest.mark.parametrize("target", ["/dev/stderr", "same-file"])
    def test_output_to_stderr_opened_for_append_appends(self, dataset_path, tmp_path, target):
        # `solve --output /dev/stderr 2>> log` adds the report to log: the
        # file that stderr has open is written through descriptor 2, not
        # replaced by a renamed temporary file
        log = tmp_path / "log"
        log.write_bytes(b"previous line\n")
        with open(log, "ab") as stderr:
            result = subprocess.run(
                [sys.executable, "-m", "intervalfusion", "solve", "--input", str(dataset_path),
                 "--output", str(log) if target == "same-file" else target],
                stdout=subprocess.PIPE,
                stderr=stderr,
                timeout=60,
            )
        assert (result.returncode, result.stdout) == (0, b"")
        report = rank_alternatives(load_problem(bundled_dataset_bytes()))
        assert log.read_bytes() == b"previous line\n" + emit_report(report)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["log", "problem.json"]

    def test_output_to_an_inherited_descriptor_appends(self, dataset_path, tmp_path):
        # README: --output /dev/fd/N writes through descriptor N, here one
        # beyond stdout and stderr, opened for append by the caller
        app = tmp_path / "app.txt"
        app.write_bytes(b"previous line\n")
        fd = os.open(app, os.O_WRONLY | os.O_APPEND)
        try:
            assert fd >= 3
            result = subprocess.run(
                [sys.executable, "-m", "intervalfusion", "solve", "--input", str(dataset_path),
                 "--output", f"/dev/fd/{fd}"],
                capture_output=True,
                pass_fds=(fd,),
                timeout=60,
            )
        finally:
            os.close(fd)
        assert (result.returncode, result.stdout, result.stderr) == (0, b"", b"")
        report = rank_alternatives(load_problem(bundled_dataset_bytes()))
        assert app.read_bytes() == b"previous line\n" + emit_report(report)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["app.txt", "problem.json"]

    def test_failed_write_to_stdout_leaves_the_file_and_no_temporary_file(self, dataset_path, tmp_path):
        # stdout a regular file open for reading only: the write through it
        # fails, and nothing is renamed over the file
        app = tmp_path / "app.txt"
        app.write_bytes(b"previous line\n")
        with open(app, "rb") as stdout:
            result = subprocess.run(
                [sys.executable, "-m", "intervalfusion", "solve", "--input", str(dataset_path),
                 "--output", "/dev/stdout"],
                stdout=stdout,
                stderr=subprocess.PIPE,
                timeout=60,
            )
        code = errno.EBADF
        assert (result.returncode, result.stderr) == (1, f"error (IO): [Errno {code}] {os.strerror(code)}: "
                                                         f"'/dev/stdout'\n".encode())
        assert app.read_bytes() == b"previous line\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["app.txt", "problem.json"]

    @pytest.mark.parametrize("args", [[], ["--trace"], ["--format", "json"], ["--trace", "--format", "json"]],
                             ids=["summary", "trace", "json", "json-trace"])
    def test_stdout_output_file_and_emit_report_agree(self, dataset_path, tmp_path, args):
        # the report is written as it is rendered, to stdout or to the file
        out_path = tmp_path / "report"
        solve = [sys.executable, "-m", "intervalfusion", "solve", "--input", str(dataset_path), *args]
        to_stdout = subprocess.run(solve, capture_output=True, timeout=60)
        to_file = subprocess.run([*solve, "--output", str(out_path)], capture_output=True, timeout=60)
        assert (to_stdout.returncode, to_stdout.stderr, to_file.returncode, to_file.stderr) == (0, b"", 0, b"")
        report = rank_alternatives(load_problem(bundled_dataset_bytes()))
        expected = emit_report(report, FULL_TRACE if "--trace" in args else SUMMARY,
                               JSON_FORMAT if "json" in args else HUMAN_TABLE)
        assert to_stdout.stdout == out_path.read_bytes() == expected
        assert to_file.stdout == b""

    def test_output_naming_a_directory_fails_closed(self, dataset_path, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "reports").mkdir()
        assert main(["solve", "--input", str(dataset_path), "--output", "reports"]) == 1
        code = errno.EISDIR
        assert capsys.readouterr() == ("", f"error (IO): [Errno {code}] {os.strerror(code)}: 'reports'\n")
        assert list((tmp_path / "reports").iterdir()) == []
        assert not [p for p in tmp_path.rglob("*") if p.name.endswith(".tmp")]

    def test_output_to_dev_null_is_written_in_place(self, dataset_path, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        before = set(Path("/dev").glob(".null.*"))
        assert main(["solve", "--input", str(dataset_path), "--trace", "--output", "/dev/null"]) == 0
        assert capsys.readouterr() == ("", "")
        assert set(Path("/dev").glob(".null.*")) == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["problem.json"]

    def test_output_through_symlink_replaces_the_linked_file(self, dataset_path, tmp_path):
        real = tmp_path / "real.txt"
        real.write_bytes(b"previous report\n")
        link = tmp_path / "link.txt"
        link.symlink_to(real)
        assert main(["solve", "--input", str(dataset_path), "--output", str(link)]) == 0
        assert link.is_symlink()
        assert b"Ranking: Supplier4" in real.read_bytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link.txt", "problem.json", "real.txt"]

    def test_per_dm_normalization(self, dataset_path, capsys):
        code = main(
            [
                "solve",
                "--input",
                str(dataset_path),
                "--format",
                "json",
                "--trace",
                "--criterion-normalization",
                "per-dm",
            ]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["criterion_normalization"] == "per-dm"
        # DM1's own maximum endpoint is 0.55, not the pooled 0.70
        lo, hi = doc["normalized_criterion_weights"]["DM1"]["C2"]
        assert hi == pytest.approx(1.0)

    def test_missing_file(self, tmp_path, capsys):
        assert main(["solve", "--input", str(tmp_path / "nope.json")]) == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["solve", "validate"])
    @pytest.mark.parametrize("given, message", [
        ("./missing//doc.json", "[Errno 2] No such file or directory: './missing//doc.json'"),
        ("", "[Errno 2] No such file or directory: ''"),
        ("folder", "[Errno 21] Is a directory: 'folder'"),
    ], ids=["unnormalized", "empty", "directory"])
    def test_input_error_names_the_path_as_given(self, tmp_path, monkeypatch, capsys, command, given, message):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "folder").mkdir()
        assert main([command, "--input", given]) == 1
        out, err = capsys.readouterr()
        assert (out, err) == ("", f"error (IO): {message}\n")

    def test_schema_error_exit_code(self, tmp_path, capsys):
        path = tmp_path / "empty.json"
        path.write_text("{}")
        assert main(["solve", "--input", str(path)]) == 1
        err = capsys.readouterr().err
        assert "SchemaError" in err

    def test_near_total_conflict_is_reported_as_conflict(self, tmp_path, capsys):
        # every rating sums to 1; their fusion is all but total conflict
        doc = {
            "schema_version": "1",
            "alternatives": ["A"],
            "criteria": ["C1", "C2"],
            "decision_makers": [{"name": "D", "weight": 1, "criterion_weights": [1, 1]}],
            "ratings": {"D": {"A": {"C1": [0.999999999998, 2e-12, 0], "C2": [2e-12, 0.999999999998, 0]}}},
        }
        path = tmp_path / "conflict.json"
        path.write_text(json.dumps(doc))
        assert main(["solve", "--input", str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == [
            "error (TotalConflict): decision maker 'D', alternative 'A', criterion 'C2': "
            "conflict coefficient is 0.9999999999960001; combination is undefined"
        ]

    def test_alpha_usage_error(self, dataset_path, capsys):
        for alpha, message in [("2", "alpha must lie in [0, 1], got 2"), ("-0.5", "alpha must lie in [0, 1], got -0.5"),
                               ("abc", "invalid alpha 'abc'")]:
            with pytest.raises(SystemExit) as exc:
                main(["solve", "--input", str(dataset_path), "--alpha", alpha])
            assert exc.value.code == 2
            assert capsys.readouterr().err.endswith(f": error: argument --alpha: {message}\n")


def run_cli(args, unbuffered, **kwargs):
    """Start the CLI in a new process with PYTHONUNBUFFERED set to 1 or unset."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.Popen([sys.executable, "-m", "intervalfusion", *args], env=env, **kwargs)


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
class TestStdoutFailures:
    """A write to stdout that fails, or a stdout closed at start, exits 1
    with one line, with stdout's binary layer buffered or, under
    PYTHONUNBUFFERED, raw: stdout is written through a buffered writer of the
    CLI's own, which writes each chunk whole and is closed before the process
    exits."""

    def test_reader_that_closes_early(self, tmp_path, unbuffered):
        # a full trace far larger than a pipe's 64 KiB buffer, so that the
        # writes go on after the reader has gone
        path = tmp_path / "problem.json"
        path.write_bytes(document(2, 100, 20))
        proc = run_cli(["solve", "--input", str(path), "--trace", "--format", "json"], unbuffered,
                       stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        with proc:
            assert os.read(proc.stdout.fileno(), 10) == b'{\n  "repor'
            proc.stdout.close()
            stderr = proc.stderr.read()
        code = errno.EPIPE
        assert (proc.returncode, stderr) == (1, f"error (IO): [Errno {code}] {os.strerror(code)}\n".encode())

    @pytest.mark.parametrize("args", [["solve"], ["solve", "--trace", "--format", "json"], ["validate"]],
                             ids=["summary", "trace", "validate"])
    def test_stdout_on_a_full_device(self, dataset_path, unbuffered, args):
        with open("/dev/full", "wb") as full:
            proc = run_cli([*args, "--input", str(dataset_path)], unbuffered, stdout=full, stderr=subprocess.PIPE)
            with proc:
                stderr = proc.stderr.read()
        code = errno.ENOSPC
        assert (proc.returncode, stderr) == (1, f"error (IO): [Errno {code}] {os.strerror(code)}\n".encode())

    @pytest.mark.parametrize("command", ["solve", "validate"])
    def test_stdout_closed_at_start(self, dataset_path, unbuffered, command):
        # `intervalfusion validate ... >&-`: Python starts with sys.stdout None
        proc = run_cli([command, "--input", str(dataset_path)], unbuffered, stderr=subprocess.PIPE,
                       preexec_fn=lambda: os.close(1))
        with proc:
            stderr = proc.stderr.read()
        code = errno.EBADF
        assert (proc.returncode, stderr) == (1, f"error (IO): [Errno {code}] {os.strerror(code)}\n".encode())


class TestInMemoryStdout:
    """An in-memory sys.stdout has no descriptor and no binary buffer: main
    writes the report's text to it."""

    def test_demo(self):
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert main(["demo"]) == 0
        assert out.getvalue() == (GOLDEN_DIR / "demo-output.txt").read_bytes().decode("utf-8")

    def test_validate(self, dataset_path):
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert main(["validate", "--input", str(dataset_path)]) == 0
        assert out.getvalue() == "valid: 3 decision makers, 4 criteria, 6 alternatives\n"

    @pytest.mark.parametrize("command", ["solve", "validate"])
    def test_rejected_document_writes_nothing(self, tmp_path, capsys, command):
        path = tmp_path / "empty.json"
        path.write_text("{}")
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert main([command, "--input", str(path)]) == 1
        assert out.getvalue() == ""
        err = capsys.readouterr().err
        assert err.startswith("error (SchemaError): ") and err.count("\n") == 1 and err.endswith("\n")


class TestValidate:
    def test_valid(self, dataset_path, capsys):
        assert main(["validate", "--input", str(dataset_path)]) == 0
        assert "valid" in capsys.readouterr().out

    def test_a_line_the_caller_printed_comes_first(self, dataset_path):
        # stdout a pipe and PYTHONUNBUFFERED unset: the caller's line waits in
        # sys.stdout's buffer until main flushes it, before main writes its
        # own line through a writer of its own
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        code = ("from intervalfusion.cli import main; print('before'); "
                f"raise SystemExit(main(['validate', '--input', {str(dataset_path)!r}]))")
        result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, timeout=60)
        assert (result.returncode, result.stderr) == (0, b"")
        assert result.stdout == b"before\nvalid: 3 decision makers, 4 criteria, 6 alternatives\n"

    def test_malformed_reports_position(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"schema_version": "1", ')
        assert main(["validate", "--input", str(path)]) == 1
        err = capsys.readouterr().err
        assert "ParseError" in err
        assert "line" in err

    def test_validation_error_names_cell(self, tmp_path, capsys):
        doc = json.loads(bundled_dataset_bytes())
        doc["ratings"]["DM2"]["Supplier3"]["C2"] = [0.7, 0.7, -0.4]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", "--input", str(path)]) == 1
        err = capsys.readouterr().err
        assert "ValidationError" in err
        assert "'Supplier3'" in err

    @pytest.mark.parametrize("command", ["validate", "solve"])
    def test_rating_sum_beyond_float_range_rejected(self, tmp_path, capsys, command):
        doc = json.loads(bundled_dataset_bytes())
        doc["ratings"]["DM2"]["Supplier3"]["C2"] = [1e308, 1e308, 0.0]
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps(doc))
        assert main([command, "--input", str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == [
            "error (ValidationError): ratings['DM2']['Supplier3']['C2']: masses sum to inf, expected 1"
        ]

    @pytest.mark.parametrize(
        "args, code",
        [
            (["validate"], 1),
            (["validate", "--alpha", "1"], 0),
            (["solve", "--alpha", "1"], 0),
        ],
    )
    def test_alpha_applies_to_validate_as_to_solve(self, tmp_path, capsys, args, code):
        # the term's support dips below zero; its alpha = 1 core does not
        doc = json.loads(bundled_dataset_bytes())
        doc["scales"] = {"dip": {"kind": "tfn", "terms": {"D": [-0.2, 0.3, 0.5]}}}
        doc["decision_makers"][0]["criterion_weights"][0] = {"term": "D", "scale": "dip"}
        path = tmp_path / "dip.json"
        path.write_text(json.dumps(doc))
        assert main(args + ["--input", str(path)]) == code
        err = capsys.readouterr().err
        if code:
            assert err.splitlines() == [
                "error (ValidationError): decision_makers[0].criterion_weights[0]: "
                "weight must be non-negative, got [-0.2, 0.5]"
            ]
        else:
            assert err == ""

    @pytest.mark.parametrize("command", ["validate", "solve"])
    def test_lone_surrogate_label_rejected(self, tmp_path, capsys, command):
        path = tmp_path / "surrogate.json"
        path.write_bytes(bundled_dataset_bytes().replace(b'"Supplier1"', b'"Supplier1\\ud800"'))
        assert main([command, "--input", str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == [
            "error (ValidationError): alternatives[0]: string contains a lone surrogate: "
            "'Supplier1\\ud800'"
        ]

    @pytest.mark.parametrize(
        "extra, weight, line",
        [
            ({"x\ny": 1}, None, "error (SchemaError): document: unknown field(s): 'x\\ny'"),
            (
                {"scales": {"x\ny": {"kind": "interval", "terms": {"A": [0, 1]}}}},
                {"term": "A", "scale": "nope"},
                "error (ValidationError): decision_makers[0].weight.scale: unknown scale 'nope'; "
                "known scales: 'interval-default', 'kaufmann-tfn', 'x\\ny'",
            ),
            (
                {"scales": {"s": {"kind": "interval", "terms": {"p\nq": [0, 1]}}}},
                {"term": "r", "scale": "s"},
                "error (ValidationError): decision_makers[0].weight.term: unknown term 'r' in "
                "scale 's'; valid terms: 'p\\nq'",
            ),
        ],
        ids=["field", "scale", "term"],
    )
    def test_field_name_with_newline_gives_one_error_line(self, tmp_path, capsys, extra, weight, line):
        # every name a diagnostic lists is quoted, so a newline in one
        # cannot split the message
        doc = json.loads(bundled_dataset_bytes())
        doc.update(extra)
        if weight is not None:
            doc["decision_makers"][0]["weight"] = weight
        path = tmp_path / "extra.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", "--input", str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == [line]


# Caps its own address space, after its imports, at its size plus 8 MiB,
# then runs the CLI on its arguments.
CAPPED_CLI = """
import resource, sys
from intervalfusion.cli import main
with open("/proc/self/statm") as f:
    size = int(f.read().split()[0]) * resource.getpagesize()
resource.setrlimit(resource.RLIMIT_AS, (size + (8 << 20), resource.getrlimit(resource.RLIMIT_AS)[1]))
raise SystemExit(main(sys.argv[1:]))
"""


class TestOutOfMemory:
    def test_out_of_memory_fails_closed(self, tmp_path):
        # one child process, whose load of 80,000 cells needs more than its
        # cap: one stderr line, exit 1, and the earlier report kept
        pytest.importorskip("resource")
        if not os.path.exists("/proc/self/statm"):
            pytest.skip("no /proc/self/statm to read the process's size from")
        source, target = tmp_path / "big.json", tmp_path / "report.json"
        source.write_bytes(document(4, 1000, 20))
        target.write_bytes(b"earlier report\n")
        args = ["solve", "--input", str(source), "--trace", "--format", "json", "--output", str(target)]
        result = subprocess.run([sys.executable, "-c", CAPPED_CLI, *args], capture_output=True, timeout=120)
        assert (result.returncode, result.stdout, result.stderr) == (1, b"", b"error (Memory): out of memory\n")
        assert sorted(path.name for path in tmp_path.iterdir()) == ["big.json", "report.json"]
        assert target.read_bytes() == b"earlier report\n"


class TestUsage:
    def test_no_command(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_flag(self, dataset_path):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--input", str(dataset_path), "--unknown"])
        assert exc.value.code == 2

    def test_missing_input(self):
        with pytest.raises(SystemExit) as exc:
            main(["solve"])
        assert exc.value.code == 2


class TestDemo:
    def test_demo_matches_golden_bytes(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        golden = (GOLDEN_DIR / "demo-output.txt").read_text(encoding="utf-8")
        assert out == golden

    def test_demo_is_solve_with_trace_on_the_bundled_dataset(self, dataset_path, capsysbinary):
        assert main(["demo"]) == 0
        demo = capsysbinary.readouterr()
        assert main(["solve", "--input", str(dataset_path), "--trace"]) == 0
        assert capsysbinary.readouterr() == demo

    @pytest.mark.parametrize("option", [["--trace"], ["--input", "x"]])
    def test_demo_takes_no_options(self, option, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["demo", *option])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    def test_demo_help(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["demo", "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out == (
            "usage: intervalfusion demo [-h]\n\noptions:\n  -h, --help  show this help message and exit\n"
        )

    def test_demo_subprocess(self):
        result = subprocess.run(
            [sys.executable, "-m", "intervalfusion", "demo"],
            capture_output=True,
            timeout=60,
        )
        assert result.returncode == 0
        golden = (GOLDEN_DIR / "demo-output.txt").read_bytes()
        assert result.stdout == golden

    def test_demo_to_ascii_stdout(self):
        # the report goes out as UTF-8 bytes whatever the encoding of stdout
        result = subprocess.run(
            [sys.executable, "-m", "intervalfusion", "demo"],
            capture_output=True,
            timeout=60,
            env={**os.environ, "PYTHONIOENCODING": "ascii"},
        )
        assert (result.returncode, result.stderr) == (0, b"")
        assert result.stdout == (GOLDEN_DIR / "demo-output.txt").read_bytes()


# Runs the package as `python -m intervalfusion` does, on its own arguments,
# with an atexit hook that writes the collector's frozen count to stderr.
FREEZE_PROBE = """
import atexit, gc, runpy, sys
atexit.register(lambda: print(f"frozen: {gc.get_freeze_count()}", file=sys.stderr))
runpy.run_module("intervalfusion", run_name="__main__", alter_sys=True)
"""


@pytest.mark.parametrize(("args", "code"), [(["validate", "--input", "{doc}"], 0), (["solve", "--input", "{doc}"], 0),
                                            (["validate", "--input", "{bad}"], 1), (["solve"], 2)],
                         ids=["validate", "solve", "rejected", "usage"])
class TestProcessEntry:
    """``run``, the entry of ``python -m intervalfusion`` and of the console
    script, freezes the collector once ``main`` is done, so that the
    exit-time collections skip every object alive then; ``main`` itself
    leaves the collector as it was."""

    @pytest.fixture()
    def argv(self, args, dataset_path, tmp_path, monkeypatch):
        bad = tmp_path / "broken.json"
        bad.write_text('{"schema_version": "1", ')
        monkeypatch.setenv("COLUMNS", "80")  # the usage text wraps alike in process and in the child
        return [arg.format(doc=dataset_path, bad=bad) for arg in args]

    @staticmethod
    def in_process(argv, capsysbinary):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        return code, *capsysbinary.readouterr()

    def test_main_freezes_nothing(self, argv, code, capsysbinary):
        frozen = gc.get_freeze_count()
        assert self.in_process(argv, capsysbinary)[0] == code
        assert gc.get_freeze_count() == frozen

    def test_process_exits_frozen_with_mains_outcome(self, argv, code, capsysbinary):
        # the exit code, stdout and stderr of main in process, then the hook's line
        expected = self.in_process(argv, capsysbinary)
        result = subprocess.run([sys.executable, "-c", FREEZE_PROBE, *argv], capture_output=True, timeout=60)
        tail = re.fullmatch(rb"(.*)frozen: (\d+)\n", result.stderr, re.S)
        assert tail, result.stderr
        assert (result.returncode, result.stdout, tail[1]) == expected
        assert expected[0] == code
        assert int(tail[2]) > 0
