"""Initial states, stroboscopic runs, the ODE oracle and disorder sweeps."""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .floquet import BlockPropagator, DynamicalMap, block_propagator
from .observables import (
    ObservableTrace,
    all_magnetizations,
    default_partition,
    negativity,
    purity,
    total_excitations,
)
from .operators import (
    SpinNetworkConfig,
    hamiltonian_interaction,
    hamiltonian_kick,
    kron_all,
    sample_disorder,
)
from .spectra import GapResult, sector_gap
from .superop import DensityMatrixMargins, lindblad_rhs, validate_density_matrix

_KET = {
    "0": np.array([1.0, 0.0], dtype=complex),
    "1": np.array([0.0, 1.0], dtype=complex),
    "+": np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0),
}


class StateInvariantError(RuntimeError):
    """A density-matrix invariant failed during a stroboscopic run."""

    def __init__(self, period: int, reason: str):
        super().__init__(f"state invariant violated at period {period}: {reason}")
        self.period = period


@dataclass(frozen=True)
class InitialStateSpec:
    """Recipe for the initial density matrix.

    kind = 'pure_pattern' uses ``pattern`` (symbols 0, 1, + per site);
    kind = 'mixed_B' puts |1> on every region-A site and the fully mixed
    state on region B; kind = 'seed_size' puts |1> on the first
    ``seed_sites`` sites and |+> on the rest.
    """

    kind: str
    pattern: str | None = None
    seed_sites: int | None = None


def build_initial_state(spec: InitialStateSpec, n_sites: int) -> np.ndarray:
    """Construct the initial density matrix for a run."""
    if spec.kind == "pure_pattern":
        if spec.pattern is None or len(spec.pattern) != n_sites:
            raise ValueError(f"pattern must have length {n_sites}")
        return _pure_state([_site_ket(s) for s in spec.pattern])
    if spec.kind == "mixed_B":
        part = default_partition(n_sites)
        return kron_all(np.outer(_KET["1"], _KET["1"].conj()) if site in part.sites_a
                        else np.eye(2, dtype=complex) / 2.0 for site in range(n_sites))
    if spec.kind == "seed_size":
        k = spec.seed_sites
        if k is None or not 0 <= k <= n_sites:
            raise ValueError(f"seed_sites must be in 0..{n_sites}")
        return _pure_state([_KET["1"]] * k + [_KET["+"]] * (n_sites - k))
    raise ValueError(f"unknown initial state kind {spec.kind!r}")


def _site_ket(symbol: str) -> np.ndarray:
    try:
        return _KET[symbol]
    except KeyError:
        raise ValueError(f"invalid pattern symbol {symbol!r}, expected 0, 1 or +") from None


def _pure_state(kets) -> np.ndarray:
    psi = kron_all(kets).ravel()
    return np.outer(psi, psi.conj())


#: Invariant tolerances that run_stroboscopic enforces on every recorded state.
TRACE_TOL = 1e-9
HERM_TOL = 1e-9
POSITIVITY_TOL = 1e-8
#: Periods that run_stroboscopic steps before it checks and measures them as
#: one stack; eight 64 x 64 states at six sites take 0.5 MB.
CHUNK_PERIODS = 8


def run_stroboscopic(rho0: np.ndarray, config: SpinNetworkConfig, n_periods: int,
                     dynamical_map: DynamicalMap | BlockPropagator | None = None
                     ) -> ObservableTrace:
    """Apply the one-period map repeatedly and record observables at each n.

    The map is built once and reused for every period; by default it is the
    block propagator of ``config`` for the sector pairs a run from ``rho0``
    reaches (:func:`dtcsim.floquet.block_propagator`), and a dense one-period
    :class:`DynamicalMap` is accepted in its place; a two-period map is
    refused, since each of its steps would be recorded as one period.
    Density-matrix invariants (trace, Hermiticity, positivity) are asserted
    every period, and so is a real magnetization; a violation aborts with the
    offending period index, and the worst margins seen are returned in the
    trace.

    The states come CHUNK_PERIODS periods at a time, as one stack from the
    map's ``trajectory``, and are checked and measured as a stack.  The
    outcome is that of checking each period before stepping on: states
    stepped past the first invalid one are never checked or measured, and an
    overflow while stepping them surfaces as the non-finite check of that
    state, not as a warning.
    """
    if n_periods < 1:
        raise ValueError("n_periods must be >= 1")
    if isinstance(dynamical_map, DynamicalMap) and dynamical_map.period_multiple != 1:
        raise ValueError(
            f"run_stroboscopic steps one period at a time; got a map over "
            f"{dynamical_map.period_multiple} periods"
        )
    part = default_partition(config.n_sites)

    n_records = n_periods + 1
    mags = np.zeros((n_records, config.n_sites))
    negs = np.zeros(n_records)
    purs = np.zeros(n_records)
    excs = np.zeros(n_records)
    margins = []

    rho = np.asarray(rho0, dtype=complex).reshape(config.dim, config.dim)
    step = dynamical_map or block_propagator(config, rho)
    for start, states in zip(range(0, n_records, CHUNK_PERIODS),
                             step.trajectory(rho, n_records, CHUNK_PERIODS)):
        chunk = slice(start, start + len(states))
        try:
            checked = validate_density_matrix(states, TRACE_TOL, HERM_TOL, POSITIVITY_TOL)
            mags[chunk] = all_magnetizations(states)
        except ValueError:
            # state by state, so the error names the period and reads as
            # it would for that state alone
            checked, mags[chunk] = zip(*(_checked(state, start + i)
                                         for i, state in enumerate(states)))
        margins += checked
        negs[chunk] = negativity(states, part)
        purs[chunk] = purity(states)
        excs[chunk] = total_excitations(states)
    return ObservableTrace(
        periods=np.arange(n_records),
        magnetization=mags,
        negativity=negs,
        purity=purs,
        excitations=excs,
        worst_margins=reduce(DensityMatrixMargins.worst, margins),
    )


def _checked(rho: np.ndarray, period: int) -> tuple[DensityMatrixMargins, np.ndarray]:
    """The margins and magnetizations of one state, checked in that order;
    StateInvariantError naming ``period`` when either refuses the state."""
    try:
        return (validate_density_matrix(rho, TRACE_TOL, HERM_TOL, POSITIVITY_TOL),
                all_magnetizations(rho))
    except ValueError as exc:
        raise StateInvariantError(period, str(exc)) from exc


#: Quiet-step tolerance and quiet-run length of dtc_settling_period.
SETTLE_CHANGE_TOL = 0.01
SETTLE_RUN_LENGTH = 10


def dtc_settling_period(trace: ObservableTrace) -> int | None:
    """First even period after which the doubled dynamics has stabilised.

    Settled means every site changes by less than SETTLE_CHANGE_TOL between
    periods n and n+2 for SETTLE_RUN_LENGTH consecutive even periods; returns
    the first such n, or None if the trace never settles.
    """
    mags = trace.magnetization
    even = np.arange(0, len(mags) - 2, 2)
    quiet = np.array([np.abs(mags[n + 2] - mags[n]).max() < SETTLE_CHANGE_TOL for n in even])
    for i in range(len(quiet) - SETTLE_RUN_LENGTH + 1):
        if quiet[i:i + SETTLE_RUN_LENGTH].all():
            return int(even[i])
    return None


def ode_oracle_evolve(rho0: np.ndarray, config: SpinNetworkConfig, n_periods: int,
                      dt: float | None = None, richardson_check: bool = True,
                      richardson_tol: float = 1e-6) -> np.ndarray:
    """Integrate the master equation with fixed-step RK4, piecewise per segment.

    This is the independent verification route for the map construction: the
    kick segment is integrated with the dephasing switched off (matching the
    assumption that the pulse is fast), then the interaction segment with the
    full generator.  ``dt`` must divide both segment durations; the default
    is T/2000.  With ``richardson_check`` the run is repeated at twice the
    step and the extrapolated error estimate must stay below
    ``richardson_tol``, otherwise the step is reported as too coarse.
    """
    dt = config.period / 2000.0 if dt is None else dt
    steps_1 = _steps_for(config.t1, dt)
    steps_2 = _steps_for(config.t2, dt)
    rho = _rk4_run(rho0, config, n_periods, steps_1, steps_2)
    if richardson_check:
        if steps_1 % 2 or steps_2 % 2:
            raise ValueError("step-doubling check requires an even step count per segment")
        coarse = _rk4_run(rho0, config, n_periods, steps_1 // 2, steps_2 // 2)
        err = np.abs(rho - coarse).max() / 15.0  # 4th-order Richardson estimate
        if err > richardson_tol:
            raise ValueError(
                f"dt = {dt:.3e} too coarse: estimated integration error {err:.3e}"
            )
    return rho


def _steps_for(duration: float, dt: float) -> int:
    steps = int(round(duration / dt))
    if steps < 1 or abs(steps * dt - duration) > 1e-12 * max(1.0, duration):
        raise ValueError(f"dt = {dt} does not divide segment duration {duration}")
    return steps


def _rk4_run(rho0, config, n_periods, steps_1, steps_2):
    H1 = hamiltonian_kick(config)
    H2 = hamiltonian_interaction(config)
    n = config.n_sites
    rho = np.asarray(rho0, dtype=complex).copy()
    for _ in range(n_periods):
        rho = _rk4_segment(rho, H1, n, 0.0, config.t1, steps_1)  # dephasing off
        rho = _rk4_segment(rho, H2, n, config.gamma, config.t2, steps_2)
    return rho


def _rk4_segment(rho, H, n_sites, gamma, duration, steps):
    dt = duration / steps
    for _ in range(steps):
        k1 = lindblad_rhs(rho, H, n_sites, gamma)
        k2 = lindblad_rhs(rho + 0.5 * dt * k1, H, n_sites, gamma)
        k3 = lindblad_rhs(rho + 0.5 * dt * k2, H, n_sites, gamma)
        k4 = lindblad_rhs(rho + dt * k3, H, n_sites, gamma)
        rho = rho + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return rho


@dataclass(frozen=True)
class SweepSpec:
    """Disorder-averaged gap sweep: W values, realization count, seeding."""

    config: SpinNetworkConfig
    w_values: tuple
    n_realizations: int = 20
    base_seed: int = 12345

    def __post_init__(self):
        if not self.config.perfect_pulse:
            raise ValueError(
                "a gap sweep takes its gaps from the sector blocks of a perfect pi pulse: "
                f"epsilon must be exactly 0 (got {self.config.epsilon!r}) and 2*g*t1 = pi")
        if self.n_realizations < 1:
            raise ValueError("n_realizations must be >= 1")
        w = tuple(float(v) for v in self.w_values)
        if not w or not all(np.isfinite(w)) or any(v < 0 for v in w):
            raise ValueError(
                f"disorder strengths must be a non-empty list, finite and >= 0: {list(w)!r}")
        object.__setattr__(self, "w_values", w)


@dataclass(frozen=True)
class SweepResult:
    """Per-W gap statistics plus the raw per-realization values."""

    w_values: tuple
    gaps: np.ndarray          # shape (n_w, n_realizations); nan where failed
    mean: np.ndarray
    min: np.ndarray
    max: np.ndarray
    failures: tuple           # (w_index, realization, message) triples
    base_seed: int

    @property
    def seeds(self) -> tuple:
        """The (base_seed, realization) pairs used, one per realization."""
        return tuple((self.base_seed, r) for r in range(self.gaps.shape[1]))


def realization_seed(base_seed: int, realization: int) -> np.random.SeedSequence:
    """Stable per-realization seed; adding realizations never reshuffles."""
    return np.random.SeedSequence((base_seed, realization))


def disorder_gap_sweep(sweep: SweepSpec) -> SweepResult:
    """Average the Liouvillian gap over disorder realizations for each W.

    Each realization draws its disorder from a seed mixed from (base_seed,
    realization index) and takes its gap from
    :func:`dtcsim.spectra.sector_gap`.  Realizations that draw the same
    disorder (every one at W = 0) share one gap computation; results and
    failures are still recorded per (W, realization).  Serial and fully
    deterministic for a fixed spec.
    """
    cfg = sweep.config
    gaps = np.full((len(sweep.w_values), sweep.n_realizations), np.nan)
    failures, memo = [], {}  # memo: config -> GapResult or failure message
    for iw, w in enumerate(sweep.w_values):
        for r in range(sweep.n_realizations):
            seed = realization_seed(sweep.base_seed, r)
            config = cfg.with_disorder(sample_disorder(cfg.n_sites, w, seed))
            if config not in memo:
                try:
                    memo[config] = sector_gap(config)
                except Exception as exc:  # recorded per realization, never dropped
                    memo[config] = f"{type(exc).__name__}: {exc}"
            outcome = memo[config]
            if isinstance(outcome, GapResult) and outcome.gap is not None:
                gaps[iw, r] = outcome.gap
            else:
                message = outcome if isinstance(outcome, str) else "no gap defined"
                failures.append((iw, r, message))

    def _stat(fn):
        return np.array([fn(row[~np.isnan(row)]) if (~np.isnan(row)).any() else np.nan
                         for row in gaps])

    return SweepResult(w_values=sweep.w_values, gaps=gaps, mean=_stat(np.mean), min=_stat(np.min),
                       max=_stat(np.max), failures=tuple(failures), base_seed=sweep.base_seed)
