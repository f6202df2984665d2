"""Print the total and code lines of each ``src/rbkernel`` module, then their sums.

    python3 scripts/line_counts.py

A code line holds a token of a statement: blank lines, lines holding only a
comment, and the lines of a module, class or function docstring are left
out.  The script takes no options.
"""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
             tokenize.ENCODING, tokenize.ENDMARKER}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_lines(text: str) -> set:
    """The line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, _SCOPES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def line_counts(path: Path) -> tuple[int, int]:
    """The total and code lines of the Python file at ``path``."""
    text = path.read_text(encoding="utf-8")
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(text.splitlines()), len(code - _docstring_lines(text))


def main() -> None:
    rows = [(p.name, *line_counts(p)) for p in sorted((ROOT / "src" / "rbkernel").glob("*.py"))]
    rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    print("%-16s %6s %6s" % ("module", "lines", "code"))
    for row in rows:
        print("%-16s %6d %6d" % row)


if __name__ == "__main__":
    main()
