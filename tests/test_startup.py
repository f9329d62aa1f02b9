"""Start-up contract: what ``import pblab``, ``import pblab.cli`` and each stage command load and change, and what a
pipeline stage does to numpy's OpenBLAS thread count, each in a fresh interpreter."""

import json
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


def numpy_links_openblas_on_linux() -> bool:
    import numpy

    return sys.platform == "linux" and "openblas" in numpy.__config__.CONFIG["Build Dependencies"]["blas"]["name"]


needs_openblas = pytest.mark.skipif(not numpy_links_openblas_on_linux(), reason="numpy's BLAS is not an OpenBLAS "
                                    "that /proc/self/maps can show")
# A child's first lines: numpy loaded before pblab, and the thread count's getter and setter.
WITH_COUNT = "import numpy\nfrom pblab.stages import Manifest, _openblas\nget, set_ = _openblas()\n"


@needs_openblas
def test_stage_runs_openblas_on_one_thread_and_restores_the_count():
    """numpy loaded first and no OPENBLAS_NUM_THREADS: a stage reads 1, and after it, nested or raising, the count
    it found; a stage that raises records no timing."""
    out = run_python(WITH_COUNT + (
        "set_(2)\n"
        "m = Manifest('unused', 'hash')\n"
        "with m.stage('outer'):\n"
        "    with m.stage('inner'):\n"
        "        print(get())\n"
        "    print(get())\n"
        "print(get())\n"
        "try:\n"
        "    with m.stage('raises'):\n"
        "        print(get())\n"
        "        raise KeyError\n"
        "except KeyError:\n"
        "    print(get(), m.entry['blas_threads'], [s['stage'] for s in m.entry['stages']])"), OPENBLAS_NUM_THREADS=None)
    assert out.splitlines() == ["1", "1", "2", "1", "2 1 ['inner', 'outer']"]


@needs_openblas
def test_stage_leaves_a_callers_count_alone():
    """With OPENBLAS_NUM_THREADS set, a stage neither caps the count nor applies the variable's value."""
    out = run_python(WITH_COUNT + (
        "set_(3)\n"
        "m = Manifest('unused', 'hash')\n"
        "with m.stage('s'):\n"
        "    print(get())\n"
        "print(get(), m.entry['blas_threads'])"), OPENBLAS_NUM_THREADS="2")
    assert out.splitlines() == ["3", "3 3"]


def test_stage_without_openblas_runs_and_records_null(tmp_path):
    out = run_python(
        "import json, pathlib\n"
        "from pblab import stages\n"
        "stages._openblas = lambda: None\n"
        f"m = stages.Manifest({str(tmp_path)!r}, 'hash')\n"
        "with m.stage('s'):\n"
        "    print('ran')\n"
        "m.write()\n"
        "entry = json.loads((m.root / 'manifest.json').read_text())\n"
        "print(entry['blas_threads'], [s['stage'] for s in entry['stages']])", OPENBLAS_NUM_THREADS=None)
    assert out.splitlines() == ["ran", "None ['s']"]


@needs_openblas
def test_thread_count_changes_no_output_byte(tmp_path):
    """The tiny experiment with the cap engaged (no OPENBLAS_NUM_THREADS) and on 2 threads writes the same bytes to
    every file but the manifests, which record the count each ran with."""
    from test_experiment import tiny_config

    config = tmp_path / "config.json"
    config.write_text(json.dumps(tiny_config(tmp_path / "unused").to_dict()))
    roots = {threads: tmp_path / f"threads_{threads}" for threads in (None, "2")}
    for threads, root in roots.items():
        run_python("import numpy\nfrom pblab.experiment import load_config, run_experiment\n"
                   f"run_experiment(load_config({str(config)!r}), {str(root)!r})", OPENBLAS_NUM_THREADS=threads)

    def outputs(root):
        return {p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file() and p.name != "manifest.json"}

    capped, two = roots.values()
    assert len(outputs(capped)) > 20 and outputs(capped) == outputs(two)
    counts = [json.loads((root / "seed_0" / "manifest.json").read_text())["blas_threads"] for root in (capped, two)]
    assert counts == [1, min(2, len(os.sched_getaffinity(0)))]


# The pblab modules that each stage command must not load: those of the other stages.
NOT_LOADED = {
    "sample": ("training", "model", "probe", "explain", "experiment"),
    "train": ("probe", "explain", "sampler", "experiment"),
    "eval": ("probe", "explain", "sampler", "experiment"),
    "probe": ("training", "explain"),
    "shap-diff": ("training", "probe"),
}


@pytest.fixture(scope="module")
def stage_inputs(tmp_path_factory):
    """A tiny corpus and two one-epoch checkpoints trained on it, written in this process."""
    from pblab.cli import main

    d = tmp_path_factory.mktemp("stage_inputs")
    assert main(["gen-corpus", "--per-cell", "10", "--out", str(d)]) == 0
    for seed in (0, 1):
        assert main(["train", "--data", str(d / "corpus.jsonl"), "--val", str(d / "corpus.jsonl"), "--vocab",
                     str(d / "vocab.json"), "--epochs", "1", "--seed", str(seed), "--out", str(d / str(seed))]) == 0
    return d


@pytest.mark.parametrize("command", NOT_LOADED)
def test_a_stage_command_loads_only_its_own_stage(stage_inputs, tmp_path, command):
    """A stage command, run in a fresh interpreter on tiny inputs, succeeds without loading another stage's module
    or ``experiment``; ``pblab eval``, which draws nothing, never loads ``numpy.random``."""
    d = stage_inputs
    ckpt, other = (str(d / str(seed) / "checkpoint.pbl") for seed in (0, 1))
    argv = [command, "--data", str(d / "corpus.jsonl"), "--vocab", str(d / "vocab.json"), "--out", str(tmp_path),
            *{"sample": ["--preset", "xnli_skew", "--n", "12"], "train": ["--val", str(d / "corpus.jsonl")],
              "eval": ["--checkpoint", ckpt], "probe": ["--checkpoint", ckpt],
              "shap-diff": ["--checkpoint-bal", ckpt, "--checkpoint-cmp", other, "--max-datapoints", "4"]}[command]]
    code, loaded, random = json.loads(run_python(
        "import json, sys\n"
        "from pblab.cli import main\n"
        f"code = main({argv!r})\n"
        "print(json.dumps([code, [m for m in sys.modules if m.startswith('pblab.')], 'numpy.random' in sys.modules]))"
    ).splitlines()[-1])
    assert code == 0
    assert {"pblab.cli", "pblab.stages"} <= set(loaded)
    assert set(loaded).isdisjoint(f"pblab.{name}" for name in NOT_LOADED[command])
    assert command != "eval" or not random


def seed_then_probe(tmp_path, preamble: str) -> list:
    """Lines printed by a fresh interpreter that runs ``preamble``, then run_seed on ``tiny_config``, prints
    ``'numpy.ma' in sys.modules``, runs ``pblab probe`` at the default l2 on the seed's outputs and prints its exit code
    and ``'numpy.ma' in sys.modules`` again."""
    from test_experiment import tiny_config

    config = tmp_path / "config.json"
    config.write_text(json.dumps(tiny_config(tmp_path / "unused").to_dict()))
    seed = tmp_path / "seed_0"
    return run_python(
        preamble +
        "import sys\n"
        "from pathlib import Path\n"
        "from pblab.experiment import load_config, run_seed\n"
        f"run_seed(load_config({str(config)!r}), 0, Path({str(seed)!r}))\n"
        "print('numpy.ma' in sys.modules)\n"
        "from pblab.cli import main\n"
        f"print(main(['probe', '--checkpoint', {str(seed / 'arms' / 'imbalanced' / 'checkpoint.pbl')!r}, '--data', "
        f"{str(seed / 'corpus' / 'corpus.jsonl')!r}, '--vocab', {str(seed / 'corpus' / 'vocab.json')!r}, '--out', "
        f"{str(tmp_path / 'probe')!r}]), 'numpy.ma' in sys.modules)").splitlines()


def test_a_seed_and_the_probe_command_leave_numpy_ma_unloaded(tmp_path):
    """np.unique without return_counts imports numpy.ma (about 1.2 MB); neither run_seed nor ``pblab probe`` on its
    outputs loads it."""
    out = seed_then_probe(tmp_path, "")
    assert out[0] == "False" and out[-1] == "0 False"


def test_a_seed_and_the_probe_command_never_call_lstsq(tmp_path):
    """With a ridge the probe's Newton steps are LU solves: np.linalg.lstsq, whose SVD code adds about 1 MB to the
    process, is never called by run_seed or by ``pblab probe`` at the default l2."""
    out = seed_then_probe(tmp_path, "import numpy\n"
                                    "def lstsq(*args, **kwargs):\n"
                                    "    raise AssertionError('np.linalg.lstsq was called')\n"
                                    "numpy.linalg.lstsq = lstsq\n")
    assert out[-1] == "0 False"


def test_readme_library_example_runs():
    """The README's Library code block runs as written, so a change to a public name cannot leave it stale."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    code = readme.split("\n## Library\n", 1)[1].split("```python\n", 1)[1].split("\n```", 1)[0]
    run_python(code)


def test_readme_experiment_config_loads():
    """The README's experiment-config JSON block is a config that loads as written."""
    from pblab.experiment import ExperimentConfig

    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n### Experiment config\n", 1)[1].split("```json\n", 1)[1].split("\n```", 1)[0]
    assert ExperimentConfig.from_dict(json.loads(block)).name == "xnli-skew-demo"


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
