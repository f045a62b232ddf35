"""The benchmark's own checks pass against the current library."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_selftest_passes():
    # perfbench/selftest.py checks the benchmark's layer wrappers (parent
    # attribution included) and correctness gate against the library, so a
    # library change that breaks them fails here, not only in a bench run
    proc = subprocess.run(
        [sys.executable, "perfbench/selftest.py"], cwd=ROOT, capture_output=True, text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
