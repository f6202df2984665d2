"""Every name the package exports has a caller outside the tests: the
library's other modules, ``scripts/`` or the benchmark in ``perfbench/``.
A name that only tests use is not library code.  Every module-level
function and class of the package, private ones included, is read by some
module outside the tests, for the same reason, and so is every name a
module-level assignment binds, dunders aside.  Likewise every exception
class the package defines is caught by name outside the tests; a subclass
that only tests tell apart from its base is not library code either.  And
every method and property of a class the package defines, dunders aside,
is read by some module outside the tests: a method that only tests call
is not library code.  An exported name that is neither a class nor a
function is read outside the module that binds it, or it need not be
exported."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import rbkernel

ROOT = Path(__file__).resolve().parent.parent


def non_test_files() -> list:
    """The modules of ``scripts/`` and ``perfbench/`` that are not tests."""
    return [p for d in ("scripts", "perfbench") for p in (ROOT / d).glob("*.py")
            if not p.name.startswith("test_") and p.name != "conftest.py"]


def names_read(path: Path) -> set:
    """The names a module reads, bare or as an attribute."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def module_level_defs(path: Path) -> set:
    """The names a module's top-level ``def`` and ``class`` statements bind."""
    return {node.name for node in ast.parse(path.read_text(encoding="utf-8")).body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}


def module_level_assignments(path: Path) -> set:
    """The names a module's top-level assignments bind, dunders aside."""
    names = set()
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        targets = node.targets if isinstance(node, ast.Assign) else (
            [node.target] if isinstance(node, ast.AnnAssign) else [])
        for target in targets:
            for t in ast.walk(target):
                if isinstance(t, ast.Name) and not (t.id.startswith("__") and t.id.endswith("__")):
                    names.add(t.id)
    return names


def class_methods(path: Path) -> set:
    """The names the ``def`` statements in a module's class bodies bind,
    properties included, dunders aside."""
    return {node.name for cls in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(cls, ast.ClassDef) for node in cls.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not (node.name.startswith("__") and node.name.endswith("__"))}


def names_caught(path: Path) -> set:
    """The exception names a module's ``except`` clauses name, bare or as an
    attribute, alone or in a tuple."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            for t in node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]:
                names.add(t.id if isinstance(t, ast.Name) else t.attr)
    return names


def test_every_export_has_a_caller_outside_the_tests():
    files = [p for p in (ROOT / "src" / "rbkernel").glob("*.py") if p.name != "__init__.py"]
    files += non_test_files()
    assert len(files) > 10
    used = set().union(*map(names_read, files))
    assert sorted(set(rbkernel.__all__) - used) == []


def test_every_exported_value_is_read_outside_its_module():
    src = [p for p in (ROOT / "src" / "rbkernel").glob("*.py") if p.name != "__init__.py"]
    files = src + non_test_files()
    unread = []
    for name in rbkernel.__all__:
        value = getattr(rbkernel, name)
        if inspect.isclass(value) or inspect.isfunction(value):
            continue
        [home] = [p for p in src if name in module_level_assignments(p)]
        if not any(name in names_read(p) for p in files if p != home):
            unread.append(name)
    assert sorted(unread) == []


def test_every_module_level_def_is_read_outside_the_tests():
    src = list((ROOT / "src" / "rbkernel").glob("*.py"))
    defined = set().union(*map(module_level_defs, src))
    assert {"kernelize", "_r3_at", "RuleApplication"} <= defined
    used = set().union(*map(names_read, src + non_test_files()))
    assert sorted(defined - used) == []


def test_every_module_level_constant_is_read_outside_the_tests():
    src = list((ROOT / "src" / "rbkernel").glob("*.py"))
    defined = set().union(*map(module_level_assignments, src))
    assert {"MAX_VERTICES", "_CHUNK_CHARS", "SIZE_FACTOR", "MAX_STATES"} <= defined
    assert "__all__" not in defined
    used = set().union(*map(names_read, src + non_test_files()))
    assert sorted(defined - used) == []


def test_every_method_is_read_outside_the_tests():
    src = list((ROOT / "src" / "rbkernel").glob("*.py"))
    defined = set().union(*map(class_methods, src))
    assert {"remove_vertex", "n_vertices", "is_no"} <= defined
    used = set().union(*map(names_read, src + non_test_files()))
    assert sorted(defined - used) == []


def test_every_exception_class_is_caught_outside_the_tests():
    defined = set()
    for info in pkgutil.iter_modules(rbkernel.__path__):
        module = importlib.import_module("rbkernel." + info.name)
        defined |= {name for name, obj in vars(module).items()
                    if isinstance(obj, type) and issubclass(obj, BaseException)
                    and obj.__module__ == module.__name__}
    assert {"GraphError", "ParseError"} <= defined
    files = list((ROOT / "src" / "rbkernel").glob("*.py")) + non_test_files()
    caught = set().union(*map(names_caught, files))
    assert sorted(defined - caught) == []
