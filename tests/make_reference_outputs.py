"""Write the stored reference outputs of tests/data from the current tree.

Each case is a small run at four sites: the dtcsim subcommands of
:data:`COMMANDS`, and one evolve at palindromic disorder through the library,
since the command line cannot set an explicit disorder vector.  A case
leaves its table, ``<name>.csv``, and the values of ``exact.json`` that are
compared exactly: the settling period and stepped-matrix counts of an evolve
manifest, and the number of steady states at W = 0.
tests/test_reference_outputs.py reruns every case and compares it with the
stored data, so a change that moves a number fails Tier-1.  Regenerating the
data is a change of test data: report it with the largest difference from
the data it replaces.  Run as

    PYTHONPATH=src python tests/make_reference_outputs.py

pytest does not collect this file.
"""

import contextlib
import io
import json
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

from dtcsim import (
    InitialStateSpec,
    SpinNetworkConfig,
    build_initial_state,
    run_stroboscopic,
    sector_gap,
)
from dtcsim.cli import RunConfig, main
from dtcsim.experiments import dtc_settling_period
from dtcsim.floquet import block_propagator

DATA = Path(__file__).resolve().parent / "data"
# 140 periods let the default and the epsilon = 0.05 runs settle; the
# disordered runs settle later, so they stop at 60 to keep the data small
COMMANDS = {
    "evolve": ["evolve", "--n", "4", "--n-periods", "140"],
    "evolve_epsilon": ["evolve", "--n", "4", "--n-periods", "140", "--epsilon", "0.05"],
    "evolve_disorder": ["evolve", "--n", "4", "--n-periods", "60",
                        "--w-t-over-2pi", "0.4", "--disorder-seed", "3"],
    "spectrum": ["spectrum", "--n", "4"],
    "spectrum_epsilon": ["spectrum", "--n", "4", "--epsilon", "0.05"],
    "gap_sweep": ["gap-sweep", "--n", "4", "--w-over-j0", "0,10,30", "--realizations", "3"],
    "twosite": ["twosite"],
}
PALINDROME = (0.4, 2.1, 2.1, 0.4)
NAMES = (*COMMANDS, "evolve_palindrome")
# the integer numerics of an evolve manifest
EVOLVE_EXACT = ("settling_period", "sector_pairs", "sector_pairs_stepped", "blocks_exponentiated",
                "stepped_matrices", "largest_stepped_dim", "stepped_bytes")


def load_table(path: Path) -> np.ndarray:
    """The numbers of a table: the rows after its comment and column names."""
    return np.loadtxt(path, delimiter=",", skiprows=2, ndmin=2)


def _palindromic_evolve(path: Path) -> dict:
    """Write the table of an evolve at palindromic disorder, in the layout of
    the evolve table, to ``path``; return its exact values."""
    spin = SpinNetworkConfig(n_sites=4, disorder=np.array(PALINDROME))
    rho0 = build_initial_state(InitialStateSpec(kind="pure_pattern", pattern="11++"), 4)
    prop = block_propagator(spin, rho0)
    trace = run_stroboscopic(rho0, spin, 60, dynamical_map=prop)
    rows = np.column_stack([trace.periods, trace.magnetization, trace.negativity,
                            trace.purity, trace.excitations])
    header = ["n", *(f"mz_{l}" for l in range(4)), "negativity", "purity", "excitations"]
    lines = [f"# library evolve at disorder {list(PALINDROME)}", ",".join(header)]
    lines += [",".join(f"{v:.17g}" for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")
    stepped = [part for parts in prop.blocks.values() for part in parts if len(part)]
    return {"settling_period": dtc_settling_period(trace),
            "blocks_exponentiated": prop.exponentiated,
            "stepped_matrices": len(stepped),
            "largest_stepped_dim": max(len(part) for part in stepped)}


def output(name: str, workdir: Path) -> tuple:
    """(table path, exact values) of the case ``name`` of :data:`NAMES`, run
    from the current tree with its files in ``workdir``."""
    if name == "evolve_palindrome":
        path = workdir / f"{name}.csv"
        return path, _palindromic_evolve(path)
    argv = COMMANDS[name]
    with contextlib.redirect_stdout(io.StringIO()):
        if main([*argv, "--out", str(workdir / name)]) != 0:
            raise RuntimeError(f"dtcsim {' '.join(argv)} failed")
    stem = argv[0].replace("-", "_")
    manifest = json.loads((workdir / name / f"{stem}_manifest.json").read_text())
    exact = {}
    if stem == "evolve":
        exact = {key: manifest["numerics"][key] for key in EVOLVE_EXACT}
    elif stem == "gap_sweep":
        exact = {"n_steady_w0": sector_gap(RunConfig(n=4).spin_config()).n_steady}
    return workdir / name / f"{stem}.csv", exact


def write(data: Path = DATA) -> None:
    """Replace the stored reference outputs in ``data`` with those of the
    current tree."""
    data.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as workdir:
        found = {name: output(name, Path(workdir)) for name in NAMES}
        for name, (table, _) in found.items():
            shutil.copyfile(table, data / f"{name}.csv")
    exact = {name: values for name, (_, values) in found.items()}
    (data / "exact.json").write_text(json.dumps(exact, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(found)} tables and exact.json to {data}")


if __name__ == "__main__":
    write(Path(sys.argv[1]) if len(sys.argv) > 1 else DATA)
