"""The benchmark's own tiny-size self-test, run as part of the suite.

bench/selftest.py runs each workload untraced and traced at toy sizes and
checks its output checks, its printed metrics and the traced wrapper
counts against the ledger deltas; it asserts no timing.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_selftest_passes():
    proc = subprocess.run([sys.executable, "bench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=900)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
