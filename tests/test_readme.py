"""README's "Library use" examples, run as written, and its list of public
names, so the document cannot drift from the API."""

import re
from pathlib import Path

import intervalfusion
from intervalfusion.loading import bundled_dataset_bytes

README = Path(__file__).resolve().parent.parent / "README.md"


def library_use():
    return README.read_text(encoding="utf-8").split("\n## Library use\n", 1)[1]


def library_use_block():
    return re.search(r"```python\n(.*?)```", library_use(), re.S).group(1)


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


def test_document_recipe_runs(capsys):
    # a problem built in code goes through load_problem as a document
    recipe = re.findall(r"```python\n(.*?)```", library_use(), re.S)[1]
    exec(compile(recipe, str(README), "exec"), {})
    assert capsys.readouterr().out == "('S1', 'S2')\n"


def test_all_is_the_documented_public_names():
    sentence = re.search(r"its `__all__`, are (.*?)\.\s", library_use(), re.S).group(1)
    documented = re.findall(r"`([^`]+)`", sentence)
    assert sorted(intervalfusion.__all__) == sorted(documented)
    assert all(hasattr(intervalfusion, name) for name in documented)
