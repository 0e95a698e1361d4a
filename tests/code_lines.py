#!/usr/bin/env python3
"""Line counts of the package's modules, the measure of ROADMAP's design aim.

For each module of ``src/intervalfusion/`` it prints two counts, with
their totals:

* ``lines``: the lines of the file, as ``wc -l`` counts them;
* ``code``: the lines that hold code, that is, every line a token other
  than a comment or a line break touches, less the lines of docstrings (a
  string that is the first statement of a module, class or function).
  Blank lines and comment-only lines are not code.

It uses only the standard library, and pytest does not collect it. Run it
from anywhere:

    python3 tests/code_lines.py
"""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "intervalfusion"

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
             tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers of every docstring in ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of lines of ``source`` that hold code."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main() -> None:
    total_lines = total_code = 0
    print(f"{'module':<16}{'lines':>7}{'code':>7}")
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        n_lines, n_code = source.count("\n"), code_lines(source)
        total_lines += n_lines
        total_code += n_code
        print(f"{path.name:<16}{n_lines:>7}{n_code:>7}")
    print(f"{'total':<16}{total_lines:>7}{total_code:>7}")


if __name__ == "__main__":
    main()
