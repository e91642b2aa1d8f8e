"""The benchmark's quick evolve and sweep runs against their stored references.

``perfbench/reference.json`` holds the quick evolve table and gap-sweep
tables computed before block stepping and the symmetry-reduced sector route;
each run compares the current output to them to 1e-9, and the sweep run also
checks the gaps by an independent route through Phi_T.  A traced quick run
of crosscheck-n5 checks that the benchmark's tracer still finds every
function it wraps by name, and a traced quick sweep that the blocks
sector_eigenvalues is given are the blocks it diagonalises.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _assert_quick_run_correct(workload, trace=0):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--quick",
         "--seed", "0", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    return result


def test_quick_sweep_benchmark_matches_stored_reference():
    _assert_quick_run_correct("sweep-n6")


def test_quick_evolve_benchmark_matches_stored_reference():
    _assert_quick_run_correct("evolve-n6")


def test_traced_quick_crosscheck_run_finds_every_traced_function():
    result = _assert_quick_run_correct("crosscheck-n5", trace=1)
    assert result["metrics"]["spectra.liouvillian_gap.calls"]["value"] > 0


def test_traced_quick_evolve_run_sees_the_stacked_observables():
    metrics = _assert_quick_run_correct("evolve-n6", trace=1)["metrics"]
    assert metrics["observables.negativity.calls"]["value"] > 0
    assert metrics["superop.validate_density_matrix.calls"]["value"] > 0


def test_traced_quick_sweep_counts_the_blocks_it_diagonalises():
    # the quick sweep takes two distinct three-site configs through sector_gap,
    # each diagonalising the representatives (0, 0) and (1, 1) of the diagonal orbits
    metrics = _assert_quick_run_correct("sweep-n6", trace=1)["metrics"]
    assert metrics["spectra.sector_eigenvalues.blocks"]["value"] == 4
