"""The benchmark's workloads, one per figure family of dtcsim.

Every workload has three parts:

- ``setup(input_set, quick, out_dir)`` resolves the configuration and builds
  the inputs; it is timed as ``setup_s``.
- ``task(inputs)`` runs the workload through the package's public entry
  points and verifies its outputs; it is timed as ``task_s``.  It returns the
  outputs and one :class:`Check` per operation (CLI call, realization or
  correctness check).
- ``run_checks(inputs, outputs)`` are checks that recompute something; they
  run once per benchmark run, outside the timed region.

The seed only chooses inputs.  Every seed ``s`` of a seeded workload owns the
input sets ``input_sets(s)``, which no other seed shares.  Outputs are
compared with those stored in ``reference.json``; for the seeded workloads
they are stored for seeds 0 .. REFERENCE_SEEDS - 1, and on those and every
other seed the outputs are also checked against an independent route
computed in the run.  ``--quick`` shrinks every workload to three sites for
the self-test.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from dtcsim import cli, experiments, floquet, spectra
from dtcsim.observables import default_partition
from dtcsim.operators import SpinNetworkConfig, excitation_sectors, sample_disorder
from dtcsim.twosite import analytic_effective_coupling, two_site_numeric_coupling

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"
#: Seeds 0 .. REFERENCE_SEEDS - 1 have stored outputs for their input sets.
REFERENCE_SEEDS = 32
SETS_PER_SEED = 2
#: Absolute tolerance for outputs compared with the stored reference.
REFERENCE_TOL = 1e-9


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str = ""


def check(name: str, ok, detail: str = "") -> Check:
    return Check(name, bool(ok), "" if ok else detail)


def input_sets(seed: int) -> list[int]:
    """The input sets of a seeded workload that belong to ``seed`` alone.

    The seed is read as an unsigned 64-bit integer z, which owns the sets
    SETS_PER_SEED * z + i.
    """
    z = seed % 2**64
    return [SETS_PER_SEED * z + i for i in range(SETS_PER_SEED)]


def reference_key(workload: str, input_set: int | None, quick: bool) -> str:
    return f"{workload}{'/quick' if quick else ''}/{'-' if input_set is None else input_set}"


def load_reference(key: str):
    """Stored outputs for one input set, or None when none are stored."""
    if not REFERENCE_PATH.is_file():
        return None
    return json.loads(REFERENCE_PATH.read_text()).get(key)


def compare(name: str, got, want) -> Check:
    """Check that ``got`` matches the stored reference to REFERENCE_TOL."""
    if want is None:
        return Check(name, False, "no stored reference for this input set")
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return Check(name, False, f"shape {got.shape} != reference {want.shape}")
    if not np.array_equal(np.isnan(got), np.isnan(want)):
        return Check(name, False, "NaN entries differ from the reference")
    finite = ~np.isnan(want)
    worst = float(np.abs(got[finite] - want[finite]).max(initial=0.0))
    return check(name, worst <= REFERENCE_TOL, f"max |diff| {worst:.3e} > {REFERENCE_TOL:.0e}")


def _run_cli(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def _read_table(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=2, ndmin=2)


def _cli_inputs(out_dir: Path, argv: list[str], overrides: dict) -> dict:
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = argv[0].replace("-", "_")
    overrides = dict(overrides, experiment=argv[0], out=str(out_dir))
    return {
        "argv": argv + ["--out", str(out_dir)],
        "config": cli.parse_config(overrides=overrides),
        "table": out_dir / f"{stem}.csv",
        "manifest": out_dir / f"{stem}_manifest.json",
    }


# -- evolve-n6 ---------------------------------------------------------------

class EvolveN6:
    """``dtcsim evolve`` at paper defaults (N = 6, 111+++, 200 periods).

    Exercises the dense map build, the matvec and the observables, and
    bypasses spectra; matrix-free stepping must show its gain here.
    """

    name = "evolve-n6"
    seeded = False

    def setup(self, input_set: int | None, quick: bool, out_dir: Path) -> dict:
        flags = {"n": 3, "initial_state": "111", "n_periods": 10} if quick else {}
        argv = ["evolve"] + [f"--{k.replace('_', '-')}={v}" for k, v in flags.items()]
        inputs = _cli_inputs(out_dir, argv, flags)
        inputs["reference"] = load_reference(reference_key(self.name, None, quick))
        return inputs

    def task(self, inputs: dict):
        rc = _run_cli(inputs["argv"])
        checks = [check("cli_exit", rc == 0, f"exit status {rc}")]
        if rc != 0:
            return None, checks
        table = _read_table(inputs["table"])
        cfg = inputs["config"]
        n = cfg.n
        region_a = np.array(default_partition(n).sites_a)
        mz_a = table[:, 1 + region_a].mean(axis=1)
        purity = table[:, 1 + n + 1]
        excitations = table[:, 1 + n + 2]
        checks += [
            check("period_doubling", np.all(mz_a[1:] * mz_a[:-1] < 0),
                  "region-A magnetization does not alternate in sign every period"),
            check("purity_bounds", np.all((purity >= 2.0**-n - 1e-9) & (purity <= 1 + 1e-9)),
                  "purity outside [1/dim, 1]"),
            check("purity_nonincreasing", np.all(np.diff(purity) <= 1e-9),
                  "purity grew under a unital channel"),
            check("excitations_bounds",
                  np.all((excitations >= -1e-9) & (excitations <= n + 1e-9)),
                  "excitation number outside [0, N]"),
            compare("reference_table", table, inputs["reference"]),
        ]
        return {"table": table}, checks

    def run_checks(self, inputs: dict, outputs) -> list[Check]:
        return []

    def reference(self, outputs) -> list:
        return outputs["table"].tolist()


# -- sweep-n6 ----------------------------------------------------------------

class SweepN6:
    """``dtcsim gap-sweep --w-over-j0 0,30 --realizations 2`` at N = 6.

    Exercises the segment-block expm and the block eigenvalues, and bypasses
    the dense map, the observables and RK4.  The W = 0 row runs one config in
    both realizations, so memoising segment blocks shows here.  The checks
    recompute one realization's gap from the interaction propagator and the
    kick superoperator.
    """

    name = "sweep-n6"
    seeded = True

    def setup(self, input_set: int | None, quick: bool, out_dir: Path) -> dict:
        flags = {"w_over_j0_values": "0,30", "n_realizations": 1 if quick else 2,
                 "base_seed": 12345 + input_set}
        if quick:
            flags["n"] = 3
        argv = ["gap-sweep", f"--w-over-j0={flags['w_over_j0_values']}",
                f"--realizations={flags['n_realizations']}", f"--base-seed={flags['base_seed']}"]
        if quick:
            argv.append("--n=3")
        inputs = _cli_inputs(out_dir, argv, flags)
        inputs["reference"] = load_reference(reference_key(self.name, input_set, quick))
        return inputs

    def task(self, inputs: dict):
        rc = _run_cli(inputs["argv"])
        checks = [check("cli_exit", rc == 0, f"exit status {rc}")]
        if rc != 0:
            return None, checks
        cfg = inputs["config"]
        table = _read_table(inputs["table"])
        manifest = json.loads(inputs["manifest"].read_text())
        failed = {(iw, r): msg for iw, r, msg in manifest["failures"]}
        for iw, w in enumerate(cfg.w_over_j0_values):
            for r in range(cfg.n_realizations):
                checks.append(check(f"realization W/J0={w:g} r={r}", (iw, r) not in failed,
                                    failed.get((iw, r), "")))
        gap_w0 = table[0, 1]
        mean, low, high = table[-1, 1:4]
        checks += [
            check("gap_at_w0", abs(gap_w0 - cfg.gamma_t) <= 1e-9,
                  f"W = 0 gap*T {gap_w0!r} != gamma*T {cfg.gamma_t}"),
            check("gap_order_at_w_max", 0 < low <= mean <= high < np.inf,
                  f"min/mean/max gap*T {low!r}/{mean!r}/{high!r} not ordered and positive"),
        ]
        if inputs["reference"] is not None:
            checks.append(compare("reference_table", table, inputs["reference"]))
        return {"table": table}, checks

    def run_checks(self, inputs: dict, outputs) -> list[Check]:
        """n_steady at W = 0; realization 0 at the largest W through Phi_T.

        The task multiplies two sector-block segment propagators, one with
        the disorder negated.  Here the one-period map Phi_T = P K is used
        instead, with the interaction propagator P and the kick superoperator
        K: the pi kick sends sector pair (kl, kr) to (N - kl, N - kr), which
        is checked, so each block of Phi_2T is P K P K over two sector pairs.
        The gap must equal the min or the max of the task's row.
        """
        cfg = inputs["config"]
        spin = cfg.spin_config()
        n, dim = spin.n_sites, spin.dim
        clean = spectra.sector_gap(spin)
        rng = np.random.default_rng(experiments.realization_seed(cfg.base_seed, 0))
        disorder = rng.uniform(0.0, cfg.w_over_j0_values[-1] * spin.j0, n)
        realization = spin.with_disorder(disorder)
        interaction = floquet.interaction_propagator(realization)
        u1 = floquet.kick_unitary(realization)
        kick = np.kron(u1, u1.conj())
        sectors = excitation_sectors(n)

        def rows(kl, kr):
            return (sectors[kl][:, None] * dim + sectors[kr][None, :]).reshape(-1)

        def period(to, source):
            return interaction[np.ix_(to, to)] @ kick[np.ix_(to, source)]

        mus = []
        for kl in range(n + 1):
            for kr in range(n + 1):
                here, there = rows(kl, kr), rows(n - kl, n - kr)
                mus.append(np.linalg.eigvals(period(here, there) @ period(there, here)))
        for kl in range(n + 1):  # what is left of K outside those blocks must be zero
            for kr in range(n + 1):
                kick[np.ix_(rows(kl, kr), rows(n - kl, n - kr))] = 0.0
        leakage = float(np.abs(kick).max())
        lam = np.log(np.concatenate(mus)) / (2.0 * spin.period)
        dense = spectra.gap_from_eigenvalues(lam)
        gap = np.nan if dense.gap is None else dense.gap * spin.period
        low, high = outputs["table"][-1, 2:4]
        miss = min(abs(gap - low), abs(gap - high))
        return [
            check("n_steady_at_w0", clean.n_steady == n + 1,
                  f"n_steady = {clean.n_steady}, expected {n + 1}"),
            check("dense_sector_leakage", leakage <= 1e-10,
                  f"kick entry {leakage:.3e} outside the flipped sector pairs"),
            check("dense_gap_at_w_max", miss <= 1e-9,
                  f"dense gap*T {gap!r} matches neither min {low!r} nor max {high!r}"),
            check("dense_n_steady_at_w_max", dense.n_steady == n + 1,
                  f"n_steady = {dense.n_steady}, expected {n + 1}"),
        ]

    def reference(self, outputs) -> list:
        return outputs["table"].tolist()


# -- crosscheck-n5 ------------------------------------------------------------

class CrosscheckN5:
    """The independent routes at N = 5, epsilon = 0.05, seeded disorder W = 5 J0.

    Dense squaring (epsilon != 0), the 1024^2 eigendecomposition, gap, steady
    states and two RK4 periods against the same Phi_2T, so that no map is
    built twice.  The only workload where dense
    LAPACK and lindblad_rhs dominate; it bypasses the sector-block path, so
    changes to that path predict no change here.  The checks also test every
    eigenpair the gap comes from against Phi_2T.
    """

    name = "crosscheck-n5"
    seeded = True

    def setup(self, input_set: int | None, quick: bool, out_dir: Path) -> dict:
        n = 3 if quick else 5
        base = SpinNetworkConfig(n_sites=n, epsilon=0.05)
        cfg = base.with_disorder(sample_disorder(n, 5.0 * base.j0, input_set))
        rho0 = experiments.build_initial_state(
            experiments.InitialStateSpec(kind="seed_size", seed_sites=n // 2), n)
        return {"config": cfg, "rho0": rho0,
                "reference": load_reference(reference_key(self.name, input_set, quick))}

    def task(self, inputs: dict):
        cfg, rho0 = inputs["config"], inputs["rho0"]
        phi2 = floquet.floquet_map_2T(cfg)
        spec = spectra.eigendecompose(phi2)
        gap = spectra.liouvillian_gap(spec)
        states, _ = spectra.steady_states(spec)
        via_ode = experiments.ode_oracle_evolve(rho0, cfg, 2)
        via_map = (phi2.matrix @ rho0.reshape(-1)).reshape(cfg.dim, cfg.dim)

        mu = spec.map_eigenvalues
        map_vs_ode = float(np.abs(via_map - via_ode).max())
        n_unit = int(np.sum(np.abs(mu - 1.0) <= 1e-10))
        mixed = np.eye(cfg.dim) / cfg.dim
        checks = [
            check("map_vs_rk4", map_vs_ode <= 1e-6, f"max |diff| {map_vs_ode:.3e} > 1e-6"),
            check("multipliers_contract", np.abs(mu).max() <= 1 + 1e-8,
                  f"max |mu| = {np.abs(mu).max()!r}"),
            check("single_unit_multiplier", n_unit == 1, f"{n_unit} multipliers at 1"),
            check("steady_state_maximally_mixed",
                  len(states) == 1 and np.abs(states[0] - mixed).max() <= 1e-8,
                  f"{len(states)} steady states, expected I/dim only"),
        ]
        checks.append(check("gap_defined", gap.gap is not None and gap.gap > 0,
                            f"gap {gap.gap!r}"))
        values = [gap.gap if gap.gap is not None else np.nan, gap.n_steady]
        if inputs["reference"] is not None:
            checks.append(compare("reference_gap", values, inputs["reference"]))
        return {"values": values, "map": phi2.matrix, "spectrum": spec}, checks

    def run_checks(self, inputs: dict, outputs) -> list[Check]:
        """Every eigenpair satisfies Phi_2T r = mu r, so the gap uses the true spectrum."""
        spec = outputs["spectrum"]
        right, mu = spec.right_vectors, spec.map_eigenvalues
        residual = float(np.abs(outputs["map"] @ right - right * mu).max())
        return [check("eigenpair_residual", residual <= 1e-10,
                      f"max |Phi r - mu r| {residual:.3e} > 1e-10")]

    def reference(self, outputs) -> list:
        return outputs["values"]


# -- twosite-curve --------------------------------------------------------------

class TwositeCurve:
    """``dtcsim twosite --points 1025``: 1025 small 16x16 maps plus |K| root finding.

    Mostly per-call Python overhead on 16x16 matrices, with no large BLAS
    kernel; the only workload of the twosite layer, and the one where a fixed
    cost added to every call shows.
    """

    name = "twosite-curve"
    seeded = False

    def setup(self, input_set: int | None, quick: bool, out_dir: Path) -> dict:
        points = 33 if quick else 1025
        inputs = _cli_inputs(out_dir, ["twosite", f"--points={points}"],
                             {"twosite_points": points})
        inputs["reference"] = load_reference(reference_key(self.name, None, quick))
        return inputs

    def task(self, inputs: dict):
        rc = _run_cli(inputs["argv"])
        checks = [check("cli_exit", rc == 0, f"exit status {rc}")]
        if rc != 0:
            return None, checks
        table = _read_table(inputs["table"])
        manifest = json.loads(inputs["manifest"].read_text())
        crossings = manifest["gamma_crossings_w_over_j0"]
        want = inputs["reference"]
        checks += [
            compare("reference_table", table, want and want["table"]),
            compare("reference_crossings", crossings, want and want["crossings"]),
        ]
        return {"table": table, "crossings": crossings}, checks

    def run_checks(self, inputs: dict, outputs) -> list[Check]:
        """Analytic and numeric |K| agree away from branch-flagged points."""
        cfg = inputs["config"]
        j0 = cfg.j0_t_over_2pi * 2.0 * np.pi / cfg.period()
        worst = 0.0
        for row in outputs["table"]:
            w = row[1] * j0
            if (analytic_effective_coupling(j0, w, cfg.t2).branch_flag
                    or two_site_numeric_coupling(j0, w, cfg.t2).branch_flag):
                continue
            worst = max(worst, abs(row[2] - row[3]))
        return [check("analytic_vs_numeric_coupling", worst <= 1e-8,
                      f"max ||K|_analytic - |K|_numeric| {worst:.3e} > 1e-8")]

    def reference(self, outputs) -> dict:
        return {"table": outputs["table"].tolist(), "crossings": outputs["crossings"]}


WORKLOADS = {w.name: w for w in (EvolveN6(), SweepN6(), CrosscheckN5(), TwositeCurve())}
