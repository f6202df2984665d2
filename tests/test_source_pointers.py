"""Every ``tests/<file>.py[::Name[::name]]`` reference in a comment or
docstring of the package names a test file that exists and, if it goes on,
a class or function defined at the top of that file and a method of that
class: a fact the source says a test checks must point at that test."""

import ast
import io
import re
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
POINTER = re.compile(r"tests/(\w+\.py)((?:::\w+)*)")


def pointers(path: Path) -> list:
    """The (file, names) references in a module's comments and strings."""
    found = []
    text = path.read_text(encoding="utf-8")
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type in (tokenize.COMMENT, tokenize.STRING):
            for m in POINTER.finditer(tok.string):
                found.append((m[1], m[2].split("::")[1:]))
    return found


def resolves(file: str, names: list) -> bool:
    """Whether ``tests/<file>`` exists and defines the chain of names."""
    path = ROOT / "tests" / file
    if not path.is_file():
        return False
    body = ast.parse(path.read_text(encoding="utf-8")).body
    for name in names:
        node = next((n for n in body if isinstance(n, (ast.FunctionDef, ast.ClassDef))
                     and n.name == name), None)
        if node is None:
            return False
        body = node.body
    return True


def test_every_test_pointer_in_the_source_resolves():
    refs = [(p.name, file, names) for p in sorted((ROOT / "src" / "rbkernel").glob("*.py"))
            for file, names in pointers(p)]
    assert len(refs) >= 10
    assert [ref for ref in refs if not resolves(*ref[1:])] == []


def test_a_stale_pointer_does_not_resolve():
    assert resolves("test_kernelize.py", ["TestReferenceEquivalence", "test_on_grids"])
    assert not resolves("test_kernelize.py", ["TestReferenceEquivalence", "test_on_nothing"])
    assert not resolves("test_kernelize.py", ["test_on_grids"])
    assert not resolves("test_nothing.py", [])
