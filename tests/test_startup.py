"""Start-up contract: what ``import pblab`` and ``import pblab.cli`` load and change, each in a fresh interpreter."""

import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import pblab

ROOT = Path(__file__).resolve().parents[1]


def run_python(code: str, **env) -> str:
    """stdout of ``code`` in a fresh interpreter with ``src`` on its path; an env value of None unsets that variable."""
    child = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    for key, value in env.items():
        if value is None:
            child.pop(key, None)
        else:
            child[key] = value
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=child,
                          check=True).stdout.strip()


def test_import_pblab_loads_neither_numpy_nor_a_submodule():
    loaded = run_python("import sys, pblab; print(sorted(m for m in sys.modules if m.split('.')[0] in "
                        "('numpy', 'pblab')))")
    assert loaded == "['pblab']"


def test_every_public_name_is_its_home_modules_object():
    out = run_python(
        "import importlib, pblab\n"
        "for name in pblab.__all__:\n"
        "    obj = getattr(pblab, name)\n"
        "    assert obj.__module__.startswith('pblab.'), name\n"
        "    assert obj is getattr(importlib.import_module(obj.__module__), name), name\n"
        "names = {}\n"
        "exec('from pblab import *', names)\n"
        "print(len(pblab.__all__), len(set(pblab.__all__)), sorted(set(pblab.__all__) - set(names)))")
    assert out == "38 38 []"


def test_unknown_name_raises_and_submodules_still_import():
    out = run_python(
        "import pblab\n"
        "try:\n"
        "    pblab.nope\n"
        "except AttributeError as e:\n"
        "    print(e)\n"
        "from pblab import explain\n"
        "print(explain.__name__, explain.shapley_exact is pblab.shapley_exact)")
    assert out.splitlines() == ["module 'pblab' has no attribute 'nope'", "pblab.explain True"]


def test_cli_defaults_openblas_to_one_thread_and_keeps_a_callers_count():
    code = "import os, pblab.cli; print(os.environ['OPENBLAS_NUM_THREADS'])"
    assert run_python(code, OPENBLAS_NUM_THREADS=None) == "1"
    assert run_python(code, OPENBLAS_NUM_THREADS="2") == "2"


def test_cli_imported_after_numpy_leaves_the_environment_alone():
    out = run_python("import os, numpy; before = dict(os.environ); import pblab.cli; print(dict(os.environ) == before)",
                     OPENBLAS_NUM_THREADS=None)
    assert out == "True"


def test_readme_library_example_runs():
    """The README's Library code block runs as written, so a change to a public name cannot leave it stale."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    code = readme.split("\n## Library\n", 1)[1].split("```python\n", 1)[1].split("\n```", 1)[0]
    run_python(code)


def test_readme_cli_walkthrough_runs(tmp_path, monkeypatch):
    """Each ``pblab`` line of the README's CLI block but ``experiment --config`` returns 0, in order, in an empty
    directory: every file a line reads, an earlier line wrote."""
    from pblab.cli import main

    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## CLI\n", 1)[1].split("```\n", 1)[1].split("\n```", 1)[0]
    lines = [shlex.split(line, comments=True) for line in block.replace("\\\n", " ").splitlines()]
    commands = [argv[1:] for argv in lines if argv[:1] == ["pblab"] and argv[1:3] != ["experiment", "--config"]]
    assert len(commands) == 10
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert main(argv) == 0, argv


def test_version_matches_pyproject():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    with open(ROOT / "pyproject.toml", "rb") as f:
        assert pblab.__version__ == tomllib.load(f)["project"]["version"]
