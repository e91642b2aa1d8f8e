"""The benchmark's quick evolve and sweep runs against their stored references.

``perfbench/reference.json`` holds the quick evolve table and gap-sweep
tables computed before block stepping and the symmetry-reduced sector route;
each run compares the current output to them to 1e-9, and the sweep run also
checks the gaps by an independent route through Phi_T.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _assert_quick_run_correct(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--quick",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0


def test_quick_sweep_benchmark_matches_stored_reference():
    _assert_quick_run_correct("sweep-n6")


def test_quick_evolve_benchmark_matches_stored_reference():
    _assert_quick_run_correct("evolve-n6")
