"""Every module-level import of the package and of the suite is used: a dead import is a name the reader must
look up for nothing."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted([*(ROOT / "src" / "pblab").glob("*.py"), *(ROOT / "tests").glob("*.py")])


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
