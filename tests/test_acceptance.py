"""Acceptance suite: the headline quantitative claims, one test per criterion.

Each test prints a single PASS line with the measured numbers (visible with
pytest -s or in captured output).  The heavyweight six-site objects (the
one- and two-period maps and the dense 4096 x 4096 eigendecomposition) come
from session fixtures and are built once.
"""

from dataclasses import replace

import numpy as np
import pytest

from dtcsim import (
    InitialStateSpec,
    SweepSpec,
    analytic_effective_coupling,
    build_initial_state,
    coupling_gamma_crossings,
    disorder_gap_sweep,
    excitation_superop_commutant_check,
    floquet_map_2T,
    liouvillian_gap,
    matrix_exp,
    ode_oracle_evolve,
    run_stroboscopic,
    sample_disorder,
    steady_states,
    two_site_gap_curve,
    two_site_numeric_coupling,
    vectorize,
)
from helpers import effective_hamiltonian_2T

J0 = 0.2 * 2 * np.pi
GAMMA = 0.02
T2 = 0.5


def _report(number, text):
    print(f"PASS criterion {number}: {text}")


def test_criterion_1_gap_and_relaxation_time(default_config, default_spectral):
    """Dense spectrum at the defaults: gap*T = 0.02 and tau/T = 50."""
    result = liouvillian_gap(default_spectral)
    assert result.gap == pytest.approx(0.02, abs=0.001)
    assert default_config.period == 1.0
    assert result.relaxation_time == pytest.approx(50.0, abs=3.0)
    _report(1, f"gap*T = {result.gap:.6f}, tau/T = {result.relaxation_time:.2f}, "
               f"n_steady = {result.n_steady}")


def test_criterion_2_effective_hamiltonian_identity(gamma0_config):
    """Phi_2T without dephasing equals the double-period effective unitary."""
    phi2 = floquet_map_2T(gamma0_config).matrix
    U = matrix_exp(-2j * effective_hamiltonian_2T(gamma0_config) * gamma0_config.period)
    deviation = np.abs(phi2 - np.kron(U, U.conj())).max()
    assert deviation < 1e-10
    _report(2, f"max |Phi_2T - superop(exp(-2i H_eff T))| = {deviation:.3e}")


def test_criterion_3_excitation_conservation(default_config, default_map_2T):
    """[Phi_2T, N superop] vanishes at zero rotation error, with and without
    dephasing and disorder."""
    worst = 0.0
    for gamma in (0.0, 0.02):
        for w_over_j0 in (0.0, 10.0):
            disorder = sample_disorder(6, w_over_j0 * J0, seed=2718)
            cfg = replace(default_config, gamma=gamma, disorder=disorder)
            is_default = gamma == default_config.gamma and not disorder.any()
            dmap = default_map_2T if is_default else floquet_map_2T(cfg)
            worst = max(worst, excitation_superop_commutant_check(dmap))
    assert worst < 1e-10
    _report(3, f"max commutant residual over four (gamma, W) points = {worst:.3e}")


def test_criterion_4_dtc_growth(default_trace, gamma0_trace):
    """Period-doubled order covers every site by n = 150 under dephasing;
    without dephasing the dynamics never settles."""
    m150 = default_trace.magnetization[150]
    m151 = default_trace.magnetization[151]
    residual = np.abs(m151 + m150).max()
    amplitude = np.abs(m150).min()
    assert residual <= 0.02
    assert amplitude > 0.1
    site3 = gamma0_trace.magnetization[100:201, 3]
    amplitude_series = (-1.0) ** np.arange(100, 201) * site3
    wander = amplitude_series.std()
    assert wander > 0.02
    _report(4, f"doubling residual = {residual:.4f}, min amplitude = {amplitude:.3f}, "
               f"gamma=0 site-3 amplitude std = {wander:.3f}")


def test_criterion_5_mixed_seed_growth(default_config, default_map):
    """The fully mixed region B still grows the doubled order, and the
    negativity rises then dies away."""
    rho0 = build_initial_state(InitialStateSpec(kind="mixed_B"), 6)
    trace = run_stroboscopic(rho0, default_config, 201, dynamical_map=default_map)
    m150, m151 = trace.magnetization[150], trace.magnetization[151]
    assert np.abs(m151 + m150).max() <= 0.02
    assert np.abs(m150).min() > 0.1
    peak = trace.negativity.max()
    final = trace.negativity[200]
    assert peak > 1e-3
    assert final < 1e-3
    _report(5, f"doubling residual = {np.abs(m151 + m150).max():.4f}, "
               f"negativity peak = {peak:.3f}, negativity(200T) = {final:.2e}")


def test_criterion_6_steady_state_manifold(default_spectral, default_map_2T):
    """At least seven unit eigenvalues, each trace-carrying fixed point exact
    to 1e-8."""
    n_unit = int(np.sum(np.abs(default_spectral.map_eigenvalues - 1.0) < 1e-8))
    assert n_unit >= 7
    states, _ = steady_states(default_spectral)
    assert len(states) >= 7
    worst = 0.0
    for rho in states:
        vec = vectorize(rho)
        worst = max(worst, np.abs(default_map_2T.matrix @ vec - vec).max())
    assert worst < 1e-8
    _report(6, f"unit eigenvalues = {n_unit}, trace-carrying fixed points = "
               f"{len(states)}, worst fixed-point residual = {worst:.3e}")


def test_criterion_7_disorder_plateau_and_decline(default_config):
    """Gap plateau at W/J0 = 10, strict decline at W/J0 = 30 (20 realizations)."""
    sweep = SweepSpec(config=default_config,
                      w_values=(10.0 * J0, 30.0 * J0),
                      n_realizations=20, base_seed=12345)
    result = disorder_gap_sweep(sweep)
    mean10, mean30 = result.mean
    assert mean10 == pytest.approx(0.02, rel=0.20)
    assert mean30 < mean10
    assert mean30 < 0.02
    _report(7, f"mean gap*T at W/J0=10: {mean10:.5f}, at W/J0=30: {mean30:.5f} "
               f"(20 realizations, base seed 12345)")


def test_criterion_8_two_site_closed_forms():
    """Exact coupling at W = 0, route agreement, gamma crossing near 29 J0,
    gap plateau and collapse."""
    assert analytic_effective_coupling(J0, 0.0, T2).coupling_magnitude == \
        pytest.approx(J0, abs=1e-12)
    w_grid = np.linspace(0.0, 2.0 * np.pi**2 / T2, 161)
    route_gap = 0.0
    for w in w_grid:
        ka = analytic_effective_coupling(J0, w, T2)
        kn = two_site_numeric_coupling(J0, w, T2)
        if not (ka.branch_flag or kn.branch_flag):
            route_gap = max(route_gap, abs(ka.coupling_magnitude - kn.coupling_magnitude))
    assert route_gap < 1e-8
    crossings = coupling_gamma_crossings(J0, GAMMA, T2)
    last = crossings[-1] / J0
    assert last == pytest.approx(29.0, abs=2.0)
    below = two_site_gap_curve(J0, GAMMA, T2, [0.0, 0.5 * crossings[0]])
    assert below[1].gap == pytest.approx(below[0].gap, abs=1e-9)
    above = two_site_gap_curve(J0, GAMMA, T2, [1.02 * crossings[-1]])[0]
    assert above.gap < below[0].gap
    _report(8, f"route agreement = {route_gap:.2e}, final gamma crossing at "
               f"W/J0 = {last:.2f}, plateau gap*T = {below[0].gap:.5f}, "
               f"beyond-crossing gap*T = {above.gap:.5f}")


def test_criterion_9_oracle_equivalence(default_config, default_map, seeded_state):
    """Fixed-step RK4 route agrees with the map route and converges at 4th order."""
    via_map = (default_map.matrix @ vectorize(seeded_state)).reshape(64, 64)
    fine = ode_oracle_evolve(seeded_state, default_config, 1,
                             dt=default_config.period / 2000.0, richardson_check=False)
    err_fine = np.abs(fine - via_map).max()
    assert err_fine < 1e-6
    errs = []
    for steps in (250, 500):
        out = ode_oracle_evolve(seeded_state, default_config, 1,
                                dt=default_config.period / steps, richardson_check=False)
        errs.append(np.abs(out - via_map).max())
    ratio = errs[0] / errs[1]
    assert ratio == pytest.approx(16.0, abs=4.0)
    _report(9, f"map-vs-RK4 at T/2000: {err_fine:.2e}, halving ratio = {ratio:.1f}")


def test_criterion_10_state_sanity_over_200_periods(default_config, default_map,
                                                    seeded_state):
    """Trace, Hermiticity, positivity and purity stay controlled for 200 periods."""
    vec = vectorize(seeded_state).copy()
    trace_drift = herm_drift = 0.0
    min_eig = 1.0
    purities = []
    for _ in range(201):
        rho = vec.reshape(64, 64)
        trace_drift = max(trace_drift, abs(np.trace(rho) - 1.0))
        herm_drift = max(herm_drift, np.abs(rho - rho.conj().T).max())
        min_eig = min(min_eig, float(np.linalg.eigvalsh((rho + rho.conj().T) / 2).min()))
        purities.append(np.sum(rho * rho.T).real)
        vec = default_map.matrix @ vec
    purity_increase = float(np.diff(purities).max())
    assert trace_drift < 1e-9
    assert herm_drift < 1e-9
    assert min_eig > -1e-8
    assert purity_increase <= 1e-10
    _report(10, f"trace drift = {trace_drift:.2e}, hermiticity drift = "
                f"{herm_drift:.2e}, min eigenvalue = {min_eig:.2e}, "
                f"max purity increase = {purity_increase:.2e}")
