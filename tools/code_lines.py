"""Line counts of each module of ``src/rvblab``.

For every module it prints the ``wc -l`` count and the code-line count:
the lines that hold any token other than a comment or a newline, minus the
lines of module, class and function docstrings (found with ``ast``).  The
last row is the package total.

Run from anywhere: ``python3 tools/code_lines.py``.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "rvblab"
# INDENT shares its line with code; DEDENT and ENDMARKER are empty, and
# at the end of a file they sit on the line after the last
_SKIPPED = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, _SCOPES) and node.body:
            first = node.body[0]
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """Lines holding a token other than a comment or a newline, docstrings excluded."""
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _SKIPPED:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def main() -> int:
    rows = []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        rows.append((path.name, source.count("\n"), code_lines(source)))
    rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    width = max(len(name) for name, _, _ in rows)
    print(f"{'module':<{width}}  {'lines':>6}  {'code':>6}")
    for name, lines, code in rows:
        print(f"{name:<{width}}  {lines:>6,}  {code:>6,}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
