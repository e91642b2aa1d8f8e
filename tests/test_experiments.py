"""Initial states, stroboscopic runs, oracle, sweeps, snapshots."""

from dataclasses import replace

import numpy as np
import pytest

from dtcsim import (
    InitialStateSpec,
    SpinNetworkConfig,
    SweepSpec,
    all_magnetizations,
    build_initial_state,
    devectorize,
    disorder_gap_sweep,
    floquet_map,
    floquet_map_2T,
    ode_oracle_evolve,
    purity,
    run_stroboscopic,
    spectrum_2T,
    total_excitations,
    vectorize,
)
from dtcsim.experiments import StateInvariantError, dtc_settling_period, realization_seed
from dtcsim.floquet import DynamicalMap


def test_build_initial_state_pure_pattern():
    rho = build_initial_state(InitialStateSpec(kind="pure_pattern", pattern="111+++"), 6)
    assert purity(rho) == pytest.approx(1.0, abs=1e-12)
    assert total_excitations(rho) == pytest.approx(4.5, abs=1e-12)


def test_build_initial_state_mixed_region_b():
    rho = build_initial_state(InitialStateSpec(kind="mixed_B"), 6)
    assert purity(rho) == pytest.approx(1.0 / 8.0, abs=1e-12)
    assert total_excitations(rho) == pytest.approx(4.5, abs=1e-12)


def test_build_initial_state_seed_size():
    rho = build_initial_state(InitialStateSpec(kind="seed_size", seed_sites=1), 6)
    assert np.allclose(all_magnetizations(rho), [1, 0, 0, 0, 0, 0], atol=1e-12)


def test_build_initial_state_rejects_bad_input():
    with pytest.raises(ValueError):
        build_initial_state(InitialStateSpec(kind="pure_pattern", pattern="11x"), 3)
    with pytest.raises(ValueError):
        build_initial_state(InitialStateSpec(kind="pure_pattern", pattern="11"), 3)
    with pytest.raises(ValueError):
        build_initial_state(InitialStateSpec(kind="nope"), 3)


def test_run_stroboscopic_decoupled_alternation():
    cfg = SpinNetworkConfig(n_sites=3, j0=0.0, gamma=0.0)
    rho0 = build_initial_state(InitialStateSpec(kind="pure_pattern", pattern="101"), 3)
    trace = run_stroboscopic(rho0, cfg, 10)
    m0 = trace.magnetization[0]
    for n in range(11):
        assert np.allclose(trace.magnetization[n], (-1.0) ** n * m0, atol=1e-11)


def test_run_stroboscopic_rejects_zero_periods():
    cfg = SpinNetworkConfig(n_sites=2)
    rho0 = np.eye(4) / 4.0
    with pytest.raises(ValueError):
        run_stroboscopic(rho0, cfg, 0)


def test_run_stroboscopic_reports_violation_period():
    cfg = SpinNetworkConfig(n_sites=2)
    rho0 = np.eye(4, dtype=complex) / 4.0
    broken = DynamicalMap(matrix=0.5 * np.eye(16, dtype=complex),
                          period_multiple=1, horizon=1.0)
    with pytest.raises(StateInvariantError) as err:
        run_stroboscopic(rho0, cfg, 5, dynamical_map=broken)
    assert err.value.period == 1


def test_run_stroboscopic_rejects_two_period_map():
    cfg = SpinNetworkConfig(n_sites=2)
    rho0 = build_initial_state(InitialStateSpec(kind="pure_pattern", pattern="1+"), 2)
    with pytest.raises(ValueError, match="one period"):
        run_stroboscopic(rho0, cfg, 4, dynamical_map=floquet_map_2T(cfg))


def test_settling_detection(default_trace, gamma0_trace):
    settled = dtc_settling_period(default_trace)
    assert settled is not None
    assert 10 <= settled <= 150  # DTC growth completes within the run
    assert dtc_settling_period(gamma0_trace) is None


def test_oracle_unitary_limit_preserves_purity():
    cfg = SpinNetworkConfig(n_sites=2, gamma=0.0)
    rho0 = build_initial_state(InitialStateSpec(kind="pure_pattern", pattern="1+"), 2)
    out = ode_oracle_evolve(rho0, cfg, 3, dt=cfg.period / 500.0, richardson_check=False)
    assert purity(out) == pytest.approx(1.0, abs=1e-8)


def test_oracle_rejects_nondivisible_step():
    cfg = SpinNetworkConfig(n_sites=2)
    with pytest.raises(ValueError):
        ode_oracle_evolve(np.eye(4) / 4.0, cfg, 1, dt=0.3)


def test_oracle_detects_too_coarse_step():
    cfg = SpinNetworkConfig(n_sites=2)
    rho0 = build_initial_state(InitialStateSpec(kind="pure_pattern", pattern="1+"), 2)
    with pytest.raises(ValueError, match="too coarse"):
        ode_oracle_evolve(rho0, cfg, 1, dt=cfg.period / 4.0, richardson_tol=1e-14)


def test_oracle_fourth_order_convergence():
    cfg = SpinNetworkConfig(n_sites=3, disorder=np.array([0.4, 0.0, 1.2]))
    rho0 = build_initial_state(InitialStateSpec(kind="pure_pattern", pattern="11+"), 3)
    exact = devectorize(floquet_map(cfg).matrix @ vectorize(rho0))
    errs = []
    for steps in (250, 500):
        out = ode_oracle_evolve(rho0, cfg, 1, dt=cfg.period / steps, richardson_check=False)
        errs.append(np.abs(out - exact).max())
    ratio = errs[0] / errs[1]
    assert 12.0 <= ratio <= 20.0


def test_realization_seed_stability():
    a = np.random.default_rng(realization_seed(7, 3)).uniform(size=4)
    b = np.random.default_rng(realization_seed(7, 3)).uniform(size=4)
    assert np.array_equal(a, b)
    c = np.random.default_rng(realization_seed(7, 4)).uniform(size=4)
    assert not np.array_equal(a, c)


def _quick_sweep_config():
    return SpinNetworkConfig(n_sites=4, j0=0.2 * 2 * np.pi, alpha=1.51, gamma=0.02)


def test_sweep_zero_disorder_is_degenerate():
    spec = SweepSpec(config=_quick_sweep_config(), w_values=(0.0,), n_realizations=3)
    result = disorder_gap_sweep(spec)
    assert result.min[0] == result.max[0] == result.mean[0]
    assert result.mean[0] == pytest.approx(0.02, abs=1e-3)


def test_sweep_deterministic():
    spec = SweepSpec(config=_quick_sweep_config(), w_values=(0.0, 3.0),
                     n_realizations=3, base_seed=777)
    r1 = disorder_gap_sweep(spec)
    r2 = disorder_gap_sweep(spec)
    assert np.array_equal(r1.gaps, r2.gaps)
    assert r1.seeds == r2.seeds


def test_sweep_records_failures_instead_of_dropping():
    cfg = replace(_quick_sweep_config(), gamma=0.0)  # unitary: no gap anywhere
    spec = SweepSpec(config=cfg, w_values=(0.0,), n_realizations=2)
    result = disorder_gap_sweep(spec)
    assert len(result.failures) == 2
    assert np.isnan(result.gaps).all()


def test_sweep_spec_validation():
    with pytest.raises(ValueError):
        SweepSpec(config=_quick_sweep_config(), w_values=(1.0,), n_realizations=0)
    with pytest.raises(ValueError):
        SweepSpec(config=_quick_sweep_config(), w_values=(-1.0,))


@pytest.mark.parametrize("w_values", [(0.0, np.inf), (0.0, np.nan), ()],
                         ids=["inf", "nan", "empty"])
def test_sweep_spec_rejects_non_finite_strengths(w_values):
    with pytest.raises(ValueError, match="finite"):
        SweepSpec(config=_quick_sweep_config(), w_values=w_values)


def test_sweep_seeds_follow_base_seed_and_realization_count():
    spec = SweepSpec(config=_quick_sweep_config(), w_values=(0.0,),
                     n_realizations=3, base_seed=41)
    assert disorder_gap_sweep(spec).seeds == ((41, 0), (41, 1), (41, 2))


def test_spectrum_snapshot_defaults(default_config):
    lam = spectrum_2T(default_config)
    assert lam.size == 4096
    steady = np.abs(lam.real) < 1e-10
    assert steady.sum() >= 7
    decaying = lam.real[lam.real < -1e-10]
    assert -decaying.max() == pytest.approx(0.02, abs=1e-3)


def test_spectrum_snapshot_unitary():
    cfg = SpinNetworkConfig(n_sites=3, gamma=0.0)
    lam = spectrum_2T(cfg)
    assert np.abs(lam.real).max() < 1e-10


def test_excitations_conserved_at_even_periods(default_trace):
    even = default_trace.excitations[::2]
    assert np.abs(even - even[0]).max() < 1e-9


def test_negativity_peak_against_oracle(default_config, default_trace, seeded_state):
    # the early negativity peak of the default run, recomputed through the
    # independent RK4 route
    from dtcsim import negativity
    from dtcsim.observables import default_partition

    peak_n = int(np.argmax(default_trace.negativity))
    assert peak_n <= 10  # the peak is reached within the first few periods
    via_oracle = ode_oracle_evolve(seeded_state, default_config, peak_n,
                                   richardson_check=False)
    peak_from_oracle = negativity(via_oracle, default_partition(6))
    assert peak_from_oracle == pytest.approx(default_trace.negativity[peak_n], abs=1e-5)


def test_robust_to_small_rotation_error(default_config, seeded_state):
    # qualitative: period-doubled region-B amplitude survives epsilon = 0.02
    cfg = replace(default_config, epsilon=0.02)
    trace = run_stroboscopic(seeded_state, cfg, 151)
    amp_b = np.abs(trace.magnetization[150, 3:])
    assert amp_b.min() > 0.05
