#!/usr/bin/env python3
"""pblab benchmark: run one workload and print its result as the last line of stdout.

    python3 perfbench/run.py --workload acceptance_seed --seed 1 --seconds 20 --trace 0

Workloads: ``acceptance_seed``, ``explain_long``, ``ingest_cli`` (see
``workloads.py`` and README.md). The run makes its inputs from ``--seed``,
then repeats whole rounds of the workload until ``--seconds`` have passed
(at least ``min_rounds``), checks every round's outputs, and prints
``{"correct", "attempted", "failed", "metrics"}``.

With ``--trace 0`` the metrics are the end-to-end ones: medians over the
rounds of wall and CPU time, the peak resident memory, and the median of
three set-ups, each timed from the start of a fresh process to its inputs
being on disk. With ``--trace 1`` they are the per-layer ones: the run sets
up in-process under the tracer, alternates untraced and traced rounds, and
reports each layer's sums over the set-up and one traced round (median over
traced rounds), plus the tracing overhead. Spans go to
``perfbench/results/spans-<workload>-seed<seed>.json``.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

from reference import CheckFailed
from tracing import Tracer, layer_metrics
from workloads import ROOT, SCALES, SRC, WORKLOADS, run_child

HERE = Path(__file__).resolve().parent
WORK = HERE / "_work"
RESULTS = HERE / "results"
SETUP_REPEATS = 3
STARTUP_REPEATS = 3


def declared_units() -> dict:
    """Each metric's unit as BENCHMARK.json declares it."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="measure whole rounds for this long")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=sorted(SCALES), default="full", help="smoke: tiny inputs for the self-test")
    p.add_argument("--setup-into", type=Path, help=argparse.SUPPRESS)  # child: make the inputs and exit
    return p.parse_args(argv)


def import_program():
    """Import pblab from this checkout's src/ and nowhere else."""
    sys.path.insert(0, str(SRC))
    import pblab

    if Path(pblab.__file__).resolve().parent != (SRC / "pblab").resolve():
        raise SystemExit(f"run.py: imported pblab from {pblab.__file__}, not from {SRC}")


def timed_setups(args, workload, run_dir: Path) -> tuple:
    """Median wall time of fresh processes that each make the inputs; returns (seconds, inputs dir)."""
    times = []
    for k in range(SETUP_REPEATS):
        d = run_dir / f"setup{k}"
        d.mkdir()
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--scale", args.scale,
               "--setup-into", str(d)]
        seconds, code, _ = run_child(cmd, run_dir / f"setup{k}.log")
        if code != 0:
            sys.stderr.write((run_dir / f"setup{k}.log").read_text(errors="replace"))
            raise SystemExit(f"run.py: set-up exited {code}")
        times.append(seconds)
    print(f"{args.workload}: set-up {['%.3f' % t for t in times]} s", file=sys.stderr)
    return statistics.median(times), d


def cli_startup_s(run_dir: Path) -> float:
    """Median wall time of a fresh ``pblab experiment --print-schema``."""
    times = []
    for k in range(STARTUP_REPEATS):
        seconds, code, _ = run_child([sys.executable, "-m", "pblab.cli", "experiment", "--print-schema"],
                                     run_dir / f"startup{k}.log")
        if code != 0:
            raise SystemExit(f"run.py: pblab experiment --print-schema exited {code}")
        times.append(seconds)
    return statistics.median(times)


def measure(args, workload, run_dir: Path) -> dict:
    tracing = bool(args.trace)
    if tracing:
        import_program()
        inputs_dir = run_dir / "inputs"
        inputs_dir.mkdir()
        setup_tally = Tracer()
        with setup_tally.installed():
            workload.setup(args.seed, inputs_dir)
            inputs = workload.load(inputs_dir)
        startup = cli_startup_s(run_dir)
    else:
        setup_s, inputs_dir = timed_setups(args, workload, run_dir)
        import_program()
        inputs = workload.load(inputs_dir)

    min_rounds = max(workload.min_rounds, 2) if tracing else workload.min_rounds
    rounds, tallies = [], []
    start = time.perf_counter()
    while len(rounds) < min_rounds or time.perf_counter() - start < args.seconds:
        k = len(rounds)
        tally = Tracer() if tracing and k % 2 == 1 else None
        r = workload.run_round(inputs, run_dir / f"round{k}", tally)
        rounds.append(r)
        tallies.append(tally)
        print(f"{args.workload}: round {k}{' traced' if tally else ''}: wall {r.wall_s:.3f} s, "
              f"cpu {r.cpu_s:.3f} s, failed {r.failed}/{r.attempted}", file=sys.stderr)
    self_peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    correct = True
    try:
        workload.check(inputs, rounds)
    except Exception as e:  # any wrong or missing output makes the run incorrect, not a crash
        correct = False
        print(f"{args.workload}: CHECK FAILED: {e}", file=sys.stderr)
        if not isinstance(e, CheckFailed):
            traceback.print_exc()

    plain = [r for r, t in zip(rounds, tallies) if t is None]
    if tracing:
        traced = [(r, t) for r, t in zip(rounds, tallies) if t is not None]
        per_round = []
        for _, t in traced:
            combined = Tracer()
            combined.absorb(setup_tally.spans, setup_tally.counts)
            combined.absorb(t.spans, t.counts)
            per_round.append(layer_metrics(combined.spans, combined.counts, startup))
        values = {name: statistics.median(m[name] for m in per_round) for name in per_round[0]}
        traced_wall = statistics.median(r.wall_s for r, _ in traced)
        values["trace.wall_s"] = traced_wall
        values["trace.overhead_s"] = traced_wall - statistics.median(r.wall_s for r in plain)
        RESULTS.mkdir(exist_ok=True)
        spans_path = RESULTS / f"spans-{args.workload}-seed{args.seed}.json"
        spans_path.write_text(json.dumps({
            "workload": args.workload, "seed": args.seed,
            "setup": {"spans": setup_tally.spans, "counts": setup_tally.counts},
            "rounds": [{"wall_s": r.wall_s, "spans": t.spans, "counts": t.counts} for r, t in traced],
        }) + "\n")
    else:
        children = [r.peak_rss_mb for r in rounds if r.peak_rss_mb is not None]
        values = {
            "wall_s": statistics.median(r.wall_s for r in plain),
            "setup_s": setup_s,
            "cpu_s": statistics.median(r.cpu_s for r in plain),
            "peak_rss_mb": max(children) if children else self_peak_mb,
        }
    units = declared_units()
    return {
        "correct": correct,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in values.items()},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "pblab" / "__init__.py").is_file():
        print(f"run.py: no pblab sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](SCALES[args.scale][args.workload])
    if args.setup_into:
        import_program()
        workload.setup(args.seed, args.setup_into)
        return 0
    run_dir = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        result = measure(args, workload, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
