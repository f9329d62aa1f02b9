#!/usr/bin/env python3
"""Run a set of benchmark runs, one seed each, and record every raw value with its environment.

    python3 perfbench/runset.py --runs 10 --first-seed 1 --label parent
    python3 perfbench/runset.py --compare perfbench/results/set-parent.json perfbench/results/set-change.json

A set runs ``run.py`` untraced ``--runs`` times on every workload of
BENCHMARK.json (round-robin over the workloads, seeds ``--first-seed``
upwards) with ``run_seconds`` from BENCHMARK.json, and writes ``perfbench/results/set-<label>.json``: each run's
raw metric values and counts; per metric the median, the quartiles and
their distance as a share of the median; the git commit; the Python, numpy
and scipy versions; the OpenBLAS thread count; nproc; and the load average
before and after the set. ``--compare`` prints, per workload and end-to-end
metric, how far the second set's median moved from the first's, against the
metric's bound, and whether the shares of failed operations are equal.
"""

import argparse
import ctypes
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"


def load_benchmark() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        return json.load(f)


def openblas_threads() -> int | None:
    """Threads of the OpenBLAS that numpy loaded, read through its own API."""
    import numpy  # noqa: F401  (loads the library)

    with open("/proc/self/maps", encoding="utf-8") as f:
        libs = sorted({line.split()[-1] for line in f if "openblas" in line.lower() and "/" in line})
    for path in libs:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy
    import scipy

    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                                check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown (not a git checkout)"
    return {
        "git_commit": commit,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_threads": openblas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
    }


def one_run(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"runset: {workload} seed {seed} exited {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["run_wall_s"] = elapsed
    result["seed"] = seed
    return result


def summarize(values: list) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, median, median)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else None}


def run_set(args) -> Path:
    bench = load_benchmark()
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]
    record = {"label": args.label, "run_seconds": seconds, "environment": environment(),
              "loadavg_before": os.getloadavg(), "runs": {w: [] for w in workloads}}
    for i in range(args.runs):
        for w in workloads:
            r = one_run(w, args.first_seed + i, seconds)
            record["runs"][w].append(r)
            print(f"{w} seed {r['seed']}: correct {r['correct']} failed {r['failed']}/{r['attempted']} "
                  f"run {r['run_wall_s']:.1f} s " + " ".join(
                      f"{m['name']}={r['metrics'][m['name']]['value']:.4g}" for m in metrics),
                  file=sys.stderr)
    record["loadavg_after"] = os.getloadavg()
    record["summary"] = {}
    for w in workloads:
        runs = record["runs"][w]
        summary = {"correct": all(r["correct"] for r in runs),
                   "failed_share": [sum(r["failed"] for r in runs), sum(r["attempted"] for r in runs)]}
        for m in metrics:
            s = summarize([r["metrics"][m["name"]]["value"] for r in runs])
            s["bound"] = m["bound"]
            summary[m["name"]] = s
        record["summary"][w] = summary
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"set-{args.label}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    for w, summary in record["summary"].items():
        print(f"{w}: correct {summary['correct']}, failed {summary['failed_share'][0]}/{summary['failed_share'][1]}")
        for m in metrics:
            s = summary[m["name"]]
            flag = ""
            if m["name"] != "setup_s" and s["spread"] is not None:
                flag = "ok" if s["spread"] < s["bound"] / 3 else "WIDE"
            spread = f"{s['spread']:.4f}" if s["spread"] is not None else "-"
            print(f"  {m['name']:28s} median {s['median']:.6g}  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  "
                  f"spread {spread} {flag}")
    print(f"wrote {path}")
    return path


def compare(path_a: Path, path_b: Path) -> int:
    a = json.loads(Path(path_a).read_text(encoding="utf-8"))
    b = json.loads(Path(path_b).read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for m in load_benchmark()["end_to_end"]}
    worst = 0
    for w in a["summary"]:
        sa, sb = a["summary"][w], b["summary"].get(w)
        if sb is None:
            continue
        fa, fb = sa["failed_share"], sb["failed_share"]
        same = fa[0] * fb[1] == fb[0] * fa[1]
        print(f"{w}: failed share {fa[0]}/{fa[1]} vs {fb[0]}/{fb[1]} {'equal' if same else 'DIFFERENT'}")
        worst |= not same
        for name, s in sa.items():
            if not isinstance(s, dict):
                continue
            change = (sb[name]["median"] - s["median"]) / s["median"]
            worse = change if better.get(name, "lower") == "lower" else -change
            ok = worse <= s["bound"]
            worst |= not ok
            print(f"  {name:14s} {s['median']:.6g} -> {sb[name]['median']:.6g}  change {change:+.4f}  "
                  f"bound {s['bound']}  {'ok' if ok else 'WORSE'}")
    return int(worst)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--label", default=time.strftime("%Y%m%dT%H%M%S"))
    p.add_argument("--compare", nargs=2, type=Path, metavar=("FIRST", "SECOND"))
    args = p.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    run_set(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
