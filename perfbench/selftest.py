#!/usr/bin/env python3
"""Self-test of the benchmark: smoke runs, checks that bite, and refusal without the program.

    python3 perfbench/selftest.py

1. Runs every workload at the ``smoke`` scale through ``run.py``, untraced and
   traced, and checks the result line: its keys, ``correct``, no failed
   operation, and the metric names and units of BENCHMARK.json.
2. For every correctness check, corrupts one output of a smoke round (a
   flipped float in a checkpoint, a perturbed shap-diff row, a dropped shared
   example in plan.json, ...) and asserts that the check fails, after asserting
   that the untouched copy passes.
3. Asserts that ``run.py`` exits non-zero without printing a result in a
   directory that holds only BENCHMARK.json and the benchmark's own files.
Takes about a minute; prints one PASS/FAIL line per test.
"""

import copy
import json
import os
import shutil
import struct
import subprocess
import sys
import time
from pathlib import Path

import reference as ref
from workloads import ROOT, SCALES, SRC, WORKLOADS, IngestCli, Round

HERE = Path(__file__).resolve().parent
SCRATCH = HERE / "_work" / f"selftest-{os.getpid()}"


def last_json_line(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def smoke_run(workload: str, trace: int) -> None:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3", "--seconds", "0",
           "--trace", str(trace), "--scale", "smoke"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    ref.expect(proc.returncode == 0, f"run.py exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = last_json_line(proc.stdout)
    ref.expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"result keys {sorted(result)}")
    ref.expect(result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1,
               f"result {result['correct']}, {result['failed']}/{result['attempted']}")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    want = bench["per_layer"] if trace else bench["end_to_end"]
    got = result["metrics"]
    ref.expect([m["name"] for m in want] == list(got), "metric names differ from BENCHMARK.json")
    for m in want:
        ref.expect(isinstance(got[m["name"]]["value"], (int, float)), f"{m['name']}: not a number")


def expect_fails(check, label: str) -> None:
    try:
        check()
    except ref.CheckFailed:
        return
    raise AssertionError(f"check did not fail on: {label}")


def bump(obj, *keys, by):
    """Add ``by`` to the value at ``obj[k0][k1]...``."""
    for k in keys[:-1]:
        obj = obj[k]
    obj[keys[-1]] += by


def bump_json(path: Path, *keys, by) -> None:
    obj = json.loads(path.read_text(encoding="utf-8"))
    bump(obj, *keys, by=by)
    path.write_text(json.dumps(obj), encoding="utf-8")


def perturb_csv_value(path: Path, column: str, delta: float) -> None:
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    row = lines[1].split(",")
    row[header.index(column)] = repr(float(row[header.index(column)]) + delta)
    lines[1] = ",".join(row)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def move_between_categories(path: Path, delta: float) -> None:
    """Move ``delta`` of mean_cum_diff from the first row's neutral category to its pos category."""
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    key = rows[0][:2]
    for row in rows:
        if row[:2] == key and row[2] in ("pos", "neutral"):
            value = float(row[header.index("mean_cum_diff")])
            row[header.index("mean_cum_diff")] = repr(value + (delta if row[2] == "pos" else -delta))
    path.write_text("\n".join([lines[0]] + [",".join(row) for row in rows]) + "\n", encoding="utf-8")


def flip_output_bias(path: Path) -> None:
    """Overwrite the last float of a checkpoint (an output bias) with a large value."""
    data = bytearray(path.read_bytes())
    data[-4:] = struct.pack("<f", 1e3)
    path.write_bytes(bytes(data))


def smoke_rounds(name: str, n_rounds: int):
    workload = WORKLOADS[name](SCALES["smoke"][name])
    d = SCRATCH / name / "inputs"
    d.mkdir(parents=True)
    workload.setup(5, d)
    inputs = workload.load(d)
    rounds = [workload.run_round(inputs, SCRATCH / name / f"round{k}", None) for k in range(n_rounds)]
    return workload, inputs, rounds


def corrupted(r: Round, tag: str, fn) -> Round:
    out = r.out.parent / f"{r.out.name}-{tag}"
    shutil.copytree(r.out, out)
    bad = Round(r.wall_s, r.cpu_s, r.attempted, r.failed, out, r.peak_rss_mb, copy.deepcopy(r.data))
    fn(bad)
    return bad


def test_acceptance_checks():
    w, inputs, (r0, r1) = smoke_rounds("acceptance_seed", 2)
    w.check(inputs, [r0, r1])
    sd = lambda r: r.out / f"seed_{inputs.seeds[0]}"  # noqa: E731
    cases = {
        "shared count in the summary": lambda r: bump(
            r.data, "per_seed", 0, "overlap", "overlap_achieved", by=-1),
        "dropped shared example in plan.json": lambda r: bump_json(
            sd(r) / "subsets" / "plan.json", "overlap", "overlap_achieved", by=-1),
        "flipped float in a checkpoint": lambda r: flip_output_bias(sd(r) / "arms" / "balanced" / "checkpoint.pbl"),
        "accuracy in metrics.json": lambda r: bump_json(
            sd(r) / "arms" / "imbalanced" / "metrics.json", "overall_accuracy", by=1 / 120),
        "masked probabilities": lambda r: bump(
            r.data, "per_seed", 0, "arms", "imbalanced_cw", "masked_probs", 0, by=1e-6),
        "shap-diff value moved between categories": lambda r: move_between_categories(
            sd(r) / "shapdiff" / "bal_vs_imbal_cw.csv", 1e-6),
    }
    w.check(inputs, [corrupted(r0, "untouched", lambda r: None)])
    for label, fn in cases.items():
        bad = corrupted(r0, label.replace(" ", "_"), fn)
        expect_fails(lambda: w.check(inputs, [bad]), label)
    bad = corrupted(r1, "csv", lambda r: perturb_csv_value(r.out / "summary_accuracy.csv", "accuracy", 1e-9))
    expect_fails(lambda: w.check(inputs, [r0, bad]), "a CSV that differs between repeated runs")


def test_explain_checks():
    w, inputs, (r0,) = smoke_rounds("explain_long", 1)
    w.check(inputs, [r0])
    cases = {
        "perturbed shap-diff row": lambda r: perturb_csv_value(r.out / "shapdiff.csv", "mean_cum_diff", 1e-6),
        "base value": lambda r: bump_json(r.out / "shapdiff.json", "base_values", "0", "cmp", by=1e-6),
        "split fractions": lambda r: bump_json(r.out / "shapdiff.json", "split_fractions", "pos", by=1e-3),
        "value moved between categories": lambda r: move_between_categories(r.out / "short.csv", 1e-6),
        "split fraction moved between categories": lambda r: (
            bump_json(r.out / "short.json", "split_fractions", "pos", by=0.05),
            bump_json(r.out / "short.json", "split_fractions", "neutral", by=-0.05)),
    }
    w.check(inputs, [corrupted(r0, "untouched", lambda r: None)])
    for label, fn in cases.items():
        bad = corrupted(r0, label.replace(" ", "_"), fn)
        expect_fails(lambda: w.check(inputs, [bad]), label)


class BrokenShapDiff(IngestCli):
    def argv(self, cmd, d, out, seed):
        args = super().argv(cmd, d, out, seed)
        return [a if a != str(d / "reference.pbl") else str(d / "missing.pbl") for a in args]


def test_ingest_checks():
    w, inputs, (r0,) = smoke_rounds("ingest_cli", 1)
    ref.expect(r0.failed == 0, "a CLI command failed")
    w.check(inputs, [r0])
    cases = {
        "dropped shared example in plan.json": lambda r: bump_json(
            r.out / "sample" / "plan.json", "overlap", "overlap_achieved", by=-1),
        "flipped float in a checkpoint": lambda r: flip_output_bias(r.out / "train" / "checkpoint.pbl"),
        "n_per_language in probe.json": lambda r: bump_json(r.out / "probe" / "probe.json", "n_per_language", 0, by=-1),
        "fold accuracy above 1": lambda r: bump_json(r.out / "probe" / "probe.json", "fold_accuracies", 0, by=1.0),
        "perturbed shap-diff row": lambda r: perturb_csv_value(
            r.out / "shap-diff" / "shapdiff.csv", "mean_cum_diff", 1e-6),
    }
    w.check(inputs, [corrupted(r0, "untouched", lambda r: None)])
    for label, fn in cases.items():
        bad = corrupted(r0, label.replace(" ", "_"), fn)
        expect_fails(lambda: w.check(inputs, [bad]), label)
    broken = BrokenShapDiff(SCALES["smoke"]["ingest_cli"])
    r = broken.run_round(inputs, SCRATCH / "ingest_cli" / "broken", None)
    ref.expect(r.failed == 1 and r.attempted == 5, f"a failing command counted as {r.failed}/{r.attempted}")


def test_refuses_without_program():
    bare = SCRATCH / "bare"
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("_work", "results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", "acceptance_seed", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=bare, env=env, capture_output=True, text=True,
                          timeout=170)
    ref.expect(proc.returncode != 0, "run.py exited 0 without the program")
    ref.expect('"metrics"' not in proc.stdout, "run.py printed a result without the program")


def main() -> int:
    sys.path.insert(0, str(SRC))
    tests = [(f"smoke {w} trace {t}", lambda w=w, t=t: smoke_run(w, t)) for w in WORKLOADS for t in (0, 1)]
    tests += [("acceptance_seed checks bite", test_acceptance_checks),
              ("explain_long checks bite", test_explain_checks),
              ("ingest_cli checks bite", test_ingest_checks),
              ("refuses without the program", test_refuses_without_program)]
    failures = 0
    SCRATCH.mkdir(parents=True)
    try:
        for name, fn in tests:
            start = time.perf_counter()
            try:
                fn()
                print(f"PASS {name} ({time.perf_counter() - start:.1f} s)")
            except AssertionError as e:
                failures += 1
                print(f"FAIL {name}: {e}")
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
