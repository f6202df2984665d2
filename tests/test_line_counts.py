import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _script():
    """``scripts/line_counts.py`` loaded as a module."""
    spec = importlib.util.spec_from_file_location("line_counts",
                                                  ROOT / "scripts" / "line_counts.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_code_lines_leave_out_docstrings_comments_and_blanks(tmp_path):
    path = tmp_path / "module.py"
    path.write_text('"""A module\ndocstring."""\n\n# a comment\nx = [1,\n     2]\n\n\n'
                    'def f():\n    """f\'s docstring."""\n    return x  # a trailing comment\n')
    # Two statements: the assignment on two lines, and f with its return.
    assert _script().line_counts(path) == (11, 4)


def test_prints_every_module_and_the_sum():
    out = subprocess.run([sys.executable, str(ROOT / "scripts" / "line_counts.py")],
                         capture_output=True, text=True, check=True).stdout.splitlines()
    modules = sorted(p.name for p in (ROOT / "src" / "rbkernel").glob("*.py"))
    rows = [line.split() for line in out[1:]]
    assert [row[0] for row in rows] == modules + ["total"]
    assert [sum(int(row[i]) for row in rows[:-1]) for i in (1, 2)] == [int(n) for n in rows[-1][1:]]
