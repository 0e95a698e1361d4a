"""README's "Library use" example, run as written, so the document cannot
drift from the API."""

import re
from pathlib import Path

from intervalfusion.loading import bundled_dataset_bytes

README = Path(__file__).resolve().parent.parent / "README.md"


def library_use_block():
    section = README.read_text(encoding="utf-8").split("\n## Library use\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_use_example_runs(tmp_path, monkeypatch, capsys):
    (tmp_path / "problem.json").write_bytes(bundled_dataset_bytes())
    monkeypatch.chdir(tmp_path)
    namespace = {}
    exec(compile(library_use_block(), str(README), "exec"), namespace)
    out = capsys.readouterr().out
    report = namespace["report"]
    left, right = report.final[0]
    assert f"{left} {right}\n" in out
    assert "Collapsed BPAs" in out
    assert out.rstrip().endswith("Ranking: " + " ≻ ".join(report.ranking))
