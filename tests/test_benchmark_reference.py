"""The benchmark's quick sweep run against its stored reference table.

``perfbench/reference.json`` holds gap-sweep tables computed before the
symmetry-reduced sector route; the run compares the current output to them
to 1e-9 and checks the gaps by an independent route through Phi_T.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_quick_sweep_benchmark_matches_stored_reference():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep-n6", "--quick",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
