"""Every name the package exports has a caller outside the tests: the
library's other modules, ``scripts/`` or the benchmark in ``perfbench/``.
A name that only tests use is not library code."""

import ast
from pathlib import Path

import rbkernel

ROOT = Path(__file__).resolve().parent.parent


def names_read(path: Path) -> set:
    """The names a module reads, bare or as an attribute."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_every_export_has_a_caller_outside_the_tests():
    files = [p for p in (ROOT / "src" / "rbkernel").glob("*.py") if p.name != "__init__.py"]
    files += [p for d in ("scripts", "perfbench") for p in (ROOT / d).glob("*.py")
              if not p.name.startswith("test_") and p.name != "conftest.py"]
    assert len(files) > 10
    used = set().union(*map(names_read, files))
    assert sorted(set(rbkernel.__all__) - used) == []
