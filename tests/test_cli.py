import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from intervalfusion.cli import main
from intervalfusion.loading import bundled_dataset_bytes

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
            raise OSError(28, "No space left on device")

        if step == "write":
            real_write = Path.write_bytes

            def half_then_disk_full(self, data):
                real_write(self, data[: len(data) // 2])
                disk_full()

            monkeypatch.setattr(Path, "write_bytes", half_then_disk_full)
        else:
            monkeypatch.setattr(os, "replace", disk_full)
        assert main(["solve", "--input", str(dataset_path), "--output", str(out_path)]) == 1
        assert "error (IO)" in capsys.readouterr().err
        assert out_path.read_bytes() == b"previous report\n"
        assert list(out_dir.iterdir()) == [out_path]

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
            "error (TotalConflict): decision maker 'D', alternative 'A': "
            "conflict coefficient is 0.9999999999960001; combination is undefined"
        ]

    def test_alpha_usage_error(self, dataset_path):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--input", str(dataset_path), "--alpha", "2"])
        assert exc.value.code == 2


class TestValidate:
    def test_valid(self, dataset_path, capsys):
        assert main(["validate", "--input", str(dataset_path)]) == 0
        assert "valid" in capsys.readouterr().out

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
