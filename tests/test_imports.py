"""Every import of the package and of the suite is used, a function's own imports in that function, and every
parameter of a function of the package is read: a dead import or parameter is a name the reader must look up for
nothing."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "pblab").glob("*.py"))
MODULES = sorted([*PACKAGE, *(ROOT / "tests").glob("*.py")])


def _bound(statements) -> list:
    """The names that the import statements among ``statements`` bind."""
    bound = []
    for node in statements:
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names if alias.name != "*"]
    return bound


def _read(node) -> set:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def unused_imports(source: str) -> list:
    """The names that the module-level imports of ``source`` bind and that nothing in it reads."""
    tree = ast.parse(source)
    read = _read(tree)
    return [name for name in _bound(tree.body) if name not in read]


def _own_nodes(node):
    """The nodes under ``node`` that are not inside a function or class it defines."""
    for child in ast.iter_child_nodes(node):
        if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield child
            yield from _own_nodes(child)


def unused_function_imports(source: str) -> list:
    """"function: name" for each name that an import of a ``def`` of ``source`` binds and that the function's body,
    nested functions included, never reads; an import in a nested function is that function's."""
    return [f"{node.name}: {name}" for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            for name in _bound(_own_nodes(node)) if name not in _read(node)]


@pytest.mark.parametrize("path", MODULES, ids=[f"{p.parent.name}/{p.name}" for p in MODULES])
def test_no_module_level_import_is_unused(path):
    assert unused_imports(path.read_text()) == []


def test_unused_imports_finds_a_dead_name_and_keeps_a_read_one():
    source = "import os\nimport numpy.linalg\nfrom json import dumps as d, loads\nprint(os.sep, numpy.pi, d)\n"
    assert unused_imports(source) == ["loads"]


@pytest.mark.parametrize("path", MODULES, ids=[f"{p.parent.name}/{p.name}" for p in MODULES])
def test_no_function_level_import_is_unused(path):
    assert unused_function_imports(path.read_text()) == []


def test_unused_function_imports_finds_a_dead_name_and_keeps_a_read_one():
    source = ("import os\ndef f():\n    import numpy.linalg\n    from . import model as m, probe\n"
              "    def g():\n        from json import dumps, loads\n        return dumps, m\n    return numpy.pi, g\n"
              "def h():\n    return os.sep, probe\n")
    assert unused_function_imports(source) == ["f: probe", "g: loads"]


def unused_parameters(source: str) -> list:
    """"function: parameter" for each parameter of a ``def`` in ``source`` that its body, nested functions
    included, never reads. A lambda is exempt: its signature is often fixed by the caller."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            params = [*args.posonlyargs, *args.args, *args.kwonlyargs, *filter(None, (args.vararg, args.kwarg))]
            read = {n.id for stmt in node.body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            found += [f"{node.name}: {param.arg}" for param in params if param.arg not in read]
    return found


@pytest.mark.parametrize("path", PACKAGE, ids=[p.name for p in PACKAGE])
def test_no_function_parameter_is_unused(path):
    assert unused_parameters(path.read_text()) == []


def test_unused_parameters_finds_an_unread_one_and_keeps_a_read_one():
    source = ("def f(a, b, *c, d=1, **e):\n    b = a\n    def g(x):\n        return x + d\n    return g\n"
              "h = lambda unread: 0\n")
    assert unused_parameters(source) == ["f: b", "f: c", "f: e"]
