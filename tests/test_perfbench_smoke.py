"""The benchmark runs at smoke size, traced, and its checks pass.

Tracing wraps pblab's public functions by name (``perfbench/tracing.py``)
and reads some of their arguments, so a renamed function or argument shows
up here as a failed run.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["acceptance_seed", "explain_long", "ingest_cli"])
def test_benchmark_smoke_traced(workload):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "0", "--scale", "smoke", "--trace", "1"]
    out = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=600)
    assert out.returncode == 0, out.stderr[-2000:]
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, out.stderr[-2000:]
    assert result["failed"] == 0
