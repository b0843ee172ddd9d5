"""Static checks on the package source that a linter would otherwise make."""

import ast
import builtins
import importlib
import pathlib

import pytest

from liecones.exactnum import InputError, InvariantViolation, Undetermined

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "liecones"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
TESTS = sorted(pathlib.Path(__file__).resolve().parent.glob("*.py"))
# (test file, name) imported for its side effect only: the tracer test needs
# liecones.cli loaded so that the tracer finds cli.main to wrap
SIDE_EFFECT_IMPORTS = {("test_tracing.py", "liecones")}


def unused_imports(tree: ast.Module) -> list[str]:
    """Names bound by an import statement that the module never reads."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [f"{name} (line {line})" for name, line in sorted(imported.items())
            if name not in read]


@pytest.mark.parametrize("path", MODULES + TESTS,
                         ids=lambda p: p.name if p.parent == SRC else f"tests/{p.name}")
def test_no_unused_imports(path):
    unused = [u for u in unused_imports(ast.parse(path.read_text()))
              if (path.name, u.split(" ")[0]) not in SIDE_EFFECT_IMPORTS]
    assert unused == []


def test_unused_import_scan_sees_reads_and_misses():
    tree = ast.parse("from __future__ import annotations\n"
                     "import os.path\nfrom x import a, b as c\n"
                     "def f() -> a:\n    import sympy\n    return sympy.S\n")
    assert unused_imports(tree) == ["c (line 3)", "os (line 2)"]


def assert_statements(tree: ast.Module) -> list[int]:
    """Lines of the assert statements in a module; python -O strips them, so
    a check that must always run raises instead."""
    return sorted(node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert))


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_assert_statements(path):
    assert assert_statements(ast.parse(path.read_text())) == []


def test_assert_scan_sees_nested_asserts():
    tree = ast.parse("assert x\n"
                     "def f(y):\n    if y:\n        assert y > 0, 'positive'\n    return y\n"
                     "class C:\n    def g(self):\n        return 'assert not here'\n")
    assert assert_statements(tree) == [1, 4]


TAXONOMY = (InputError, Undetermined, InvariantViolation)
# (enclosing function, exception class) pairs raised outside the taxonomy
OFF_TAXONOMY_ALLOWED = {("Scalar.inverse", ZeroDivisionError),
                        ("Poly.divmod", ZeroDivisionError)}
EXCEPTION_CLASSES = {"exactnum.InputError", "exactnum.Undetermined",
                     "exactnum.InvariantViolation", "exactnum.FieldMismatchError",
                     "orbits.NotAdmissible"}


def resolve(expr: ast.expr, namespace: dict):
    """The object a name or dotted attribute expression names, or None."""
    if isinstance(expr, ast.Name):
        return namespace.get(expr.id, getattr(builtins, expr.id, None))
    if isinstance(expr, ast.Attribute):
        return getattr(resolve(expr.value, namespace), expr.attr, None)
    return None


def off_taxonomy_raises(tree: ast.Module, namespace: dict) -> list[str]:
    """raise statements whose class is not a subclass of the three taxonomy
    classes; bare re-raises and OFF_TAXONOMY_ALLOWED pass."""
    bad = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            if isinstance(child, ast.Raise) and child.exc is not None:
                exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
                cls = resolve(exc, namespace)
                where = ".".join(scope)
                if not (isinstance(cls, type) and (issubclass(cls, TAXONOMY)
                                                   or (where, cls) in OFF_TAXONOMY_ALLOWED)):
                    bad.append(f"{where} (line {child.lineno})")
            visit(child, scope)

    visit(tree, ())
    return bad


def exception_classes(tree: ast.Module, namespace: dict) -> list[str]:
    """Module-level classes that derive from BaseException."""
    return [node.name for node in tree.body if isinstance(node, ast.ClassDef)
            and isinstance(namespace.get(node.name), type)
            and issubclass(namespace[node.name], BaseException)]


def module_namespace(path: pathlib.Path) -> dict:
    return vars(importlib.import_module(f"liecones.{path.stem}"))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_raises_use_the_taxonomy(path):
    tree = ast.parse(path.read_text())
    assert off_taxonomy_raises(tree, module_namespace(path)) == []


def test_exception_classes_are_defined_once():
    found = {f"{path.stem}.{name}" for path in MODULES
             for name in exception_classes(ast.parse(path.read_text()), module_namespace(path))}
    assert found == EXCEPTION_CLASSES


def test_taxonomy_scan_sees_raises_and_classes():
    src = ("from liecones.exactnum import InputError\n"
           "class Oops(ValueError):\n    pass\n"
           "class Plain:\n    pass\n"
           "class Scalar:\n    def inverse(self):\n        raise ZeroDivisionError\n"
           "def f(x):\n"
           "    try:\n        raise InputError('in domain')\n"
           "    except InputError:\n        raise\n"
           "    raise Oops('off')\n"
           "class C:\n    def g(self):\n        raise ZeroDivisionError('not allowed here')\n")
    namespace: dict = {}
    exec(compile(src, "<snippet>", "exec"), namespace)
    tree = ast.parse(src)
    assert off_taxonomy_raises(tree, namespace) == ["f (line 14)", "C.g (line 17)"]
    assert exception_classes(tree, namespace) == ["Oops"]
