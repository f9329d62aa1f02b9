"""Every module-level import of the package and of the suite is used, and every parameter of a function of the
package is read: a dead import or parameter is a name the reader must look up for nothing."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "pblab").glob("*.py"))
MODULES = sorted([*PACKAGE, *(ROOT / "tests").glob("*.py")])


def unused_imports(source: str) -> list:
    """The names that the module-level imports of ``source`` bind and that nothing in it reads."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names if alias.name != "*"]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in read]


@pytest.mark.parametrize("path", MODULES, ids=[f"{p.parent.name}/{p.name}" for p in MODULES])
def test_no_module_level_import_is_unused(path):
    assert unused_imports(path.read_text()) == []


def test_unused_imports_finds_a_dead_name_and_keeps_a_read_one():
    source = "import os\nimport numpy.linalg\nfrom json import dumps as d, loads\nprint(os.sep, numpy.pi, d)\n"
    assert unused_imports(source) == ["loads"]


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
