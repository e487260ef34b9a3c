"""The benchmark's reduced-size self-check passes.

`bench/selfcheck.py` runs every workload at its small sizes and checks each
operation against its hand-written outcome, the tracer and the metric names
of BENCHMARK.json.  Running it here makes a broken benchmark expectation a
test failure."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_selfcheck_passes():
    done = subprocess.run([sys.executable, "bench/selfcheck.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
