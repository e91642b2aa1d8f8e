"""Block-propagator stepping against stepping with the dense one-period map."""

from dataclasses import replace

import numpy as np
import pytest

from dtcsim import (
    InitialStateSpec,
    SpinNetworkConfig,
    build_initial_state,
    floquet_map,
    run_stroboscopic,
)
from dtcsim.experiments import CHUNK_PERIODS, TRACE_TOL, StateInvariantError
from dtcsim.floquet import block_propagator
from helpers import per_period_run

OBSERVABLES = ("magnetization", "negativity", "purity", "excitations")


def _max_trace_difference(a, b):
    return max(np.abs(getattr(a, name) - getattr(b, name)).max() for name in OBSERVABLES)


def test_default_run_matches_dense_map_trace(seeded_state, default_config, default_trace):
    # default_trace steps the dense 4096^2 Phi_T; the default route is blockwise
    blockwise = run_stroboscopic(seeded_state, default_config, 201)
    assert _max_trace_difference(blockwise, default_trace) < 1e-12


@pytest.mark.parametrize("gamma", [0.0, 0.07])
@pytest.mark.parametrize("n_sites", [1, 2, 3])
def test_small_n_block_stepping_matches_dense_map(n_sites, gamma):
    # imperfect kick, unequal segments and disorder; N = 1 has no coupling pairs
    cfg = SpinNetworkConfig(n_sites=n_sites, epsilon=0.05, t1=0.3, t2=0.7, gamma=gamma,
                            disorder=np.linspace(0.4, 1.9, n_sites))
    rho0 = build_initial_state(
        InitialStateSpec(kind="pure_pattern", pattern="+1+"[:n_sites]), n_sites)
    phi = floquet_map(cfg).matrix
    prop = block_propagator(cfg)
    rho, vec = rho0, rho0.reshape(-1)
    for _ in range(12):
        rho, vec = prop.apply(rho), phi @ vec
        assert np.abs(rho - vec.reshape(cfg.dim, cfg.dim)).max() < 1e-12
    blockwise = run_stroboscopic(rho0, cfg, 12)
    dense = run_stroboscopic(rho0, cfg, 12, dynamical_map=floquet_map(cfg))
    assert _max_trace_difference(blockwise, dense) < 1e-12


def test_block_propagator_applies_every_sector_pair():
    # only the blocks with kl <= kr are held; apply writes each (kr, kl)
    # sub-matrix as the adjoint of the (kl, kr) one
    cfg = SpinNetworkConfig(n_sites=3, disorder=np.array([0.3, 0.0, 0.7]))
    prop = block_propagator(cfg)
    assert list(prop.blocks) == [(kl, kr) for kl in range(4) for kr in range(kl, 4)]
    sizes = [len(s) for s in prop.sectors]
    assert sum(b.nbytes for b in prop.blocks.values()) == sum(
        (sizes[kl] * sizes[kr]) ** 2 * 16 for kl, kr in prop.blocks)


def test_corrupted_block_breaks_hermiticity_check():
    # an off-diagonal output is the adjoint of its partner by construction,
    # but a diagonal block (k, k) maps its sub-matrix on its own, so the
    # per-period Hermiticity check can fail there; scaling the row of the
    # coherence X[0, 1] of sector 1 leaves the trace unchanged
    cfg = SpinNetworkConfig(n_sites=2)
    prop = block_propagator(cfg)
    blocks = dict(prop.blocks)
    blocks[(1, 1)] = blocks[(1, 1)].copy()
    blocks[(1, 1)][1] *= 1.5
    rho0 = build_initial_state(InitialStateSpec(kind="pure_pattern", pattern="++"), 2)
    with pytest.raises(StateInvariantError, match="Hermiticity") as err:
        run_stroboscopic(rho0, cfg, 3, dynamical_map=replace(prop, blocks=blocks))
    assert err.value.period == 1


def test_trace_records_worst_margins():
    cfg = SpinNetworkConfig(n_sites=3, gamma=0.05, disorder=np.array([0.3, 0.0, 0.7]))
    rho0 = build_initial_state(InitialStateSpec(kind="pure_pattern", pattern="1+1"), 3)
    margins = run_stroboscopic(rho0, cfg, 20).worst_margins
    assert 0.0 <= margins.trace_error < 1e-12
    assert 0.0 <= margins.hermiticity_error < 1e-12
    assert -1e-12 < margins.min_eigenvalue <= 0.0  # the pure initial state has zeros


C = CHUNK_PERIODS
SMALL = SpinNetworkConfig(n_sites=3, gamma=0.05, disorder=np.array([0.3, 0.0, 0.7]))


def _small_state():
    return build_initial_state(InitialStateSpec(kind="pure_pattern", pattern="1+1"), 3)


def _trace_scaled(route, factor):
    """The one-period map of SMALL with its trace multiplied by ``factor``.

    On the block route every diagonal block (k, k) is scaled; the image then
    gains factor - 1 times the state's pinching onto the sectors, so it stays
    Hermitian and positive.  On the dense route the whole matrix is scaled.
    """
    if route == "dense":
        dense = floquet_map(SMALL)
        return replace(dense, matrix=dense.matrix * factor)
    prop = block_propagator(SMALL)
    return replace(prop, blocks={key: block * factor if key[0] == key[1] else block
                                 for key, block in prop.blocks.items()})


def test_chunked_run_matches_per_period_loop_at_defaults(seeded_state, default_config):
    # 201 records: 25 full chunks and one of a single period
    chunked = run_stroboscopic(seeded_state, default_config, 200)
    reference = per_period_run(seeded_state, default_config, 200,
                               block_propagator(default_config))
    assert _max_trace_difference(chunked, reference) < 1e-12
    assert chunked.worst_margins == reference.worst_margins


@pytest.mark.parametrize("route", ["blocks", "dense"])
@pytest.mark.parametrize("n_periods, period", [
    (3 * C, C + C // 2),            # inside the second chunk
    (3 * C, 2 * C - 1),             # on the last period of the second chunk
    (2 * C + C // 2, 2 * C + C // 2 - 1),  # in the final, partial chunk
], ids=["inside_chunk", "last_of_chunk", "partial_final_chunk"])
def test_first_invariant_failure_matches_per_period_loop(route, n_periods, period):
    # the trace grows by 1 + delta per period and first exceeds TRACE_TOL at
    # ``period``; Hermiticity and positivity hold throughout
    step = _trace_scaled(route, 1.0 + TRACE_TOL / (period - 0.5))
    with pytest.raises(StateInvariantError) as expected:
        per_period_run(_small_state(), SMALL, n_periods, step)
    with pytest.raises(StateInvariantError) as got:
        run_stroboscopic(_small_state(), SMALL, n_periods, dynamical_map=step)
    assert expected.value.period == period
    assert type(got.value) is StateInvariantError
    assert (got.value.period, str(got.value)) == (period, str(expected.value))


@pytest.mark.parametrize("route", ["blocks", "dense"])
def test_states_stepped_past_a_failure_raise_nothing(route):
    # period 1 fails the trace check at 1e200; the chunk steps on into inf
    # and nan, which must not surface as a RuntimeWarning (an error under
    # this suite's warning filter) or a LinAlgError
    step = _trace_scaled(route, 1e200)
    with pytest.raises(StateInvariantError) as expected:
        per_period_run(_small_state(), SMALL, 2 * C, step)
    with pytest.raises(StateInvariantError) as got:
        run_stroboscopic(_small_state(), SMALL, 2 * C, dynamical_map=step)
    assert (got.value.period, str(got.value)) == (1, str(expected.value))
    assert "trace deviates from 1 by 1.000e+200" in str(got.value)


@pytest.mark.parametrize("route", ["blocks", "dense"])
def test_map_producing_nan_fails_at_that_period(route):
    if route == "dense":
        dense = floquet_map(SMALL)
        matrix = dense.matrix.copy()
        matrix[0, 0] = np.nan
        step = replace(dense, matrix=matrix)
    else:
        prop = block_propagator(SMALL)
        blocks = dict(prop.blocks)
        blocks[(1, 1)] = blocks[(1, 1)].copy()
        blocks[(1, 1)][0, 0] = np.nan
        step = replace(prop, blocks=blocks)
    with pytest.raises(StateInvariantError, match="non-finite") as err:
        run_stroboscopic(_small_state(), SMALL, C, dynamical_map=step)
    assert err.value.period == 1


def test_complex_magnetization_fails_at_its_period():
    # a phase of 4e-10 on row 0 of block (1, 1) puts an imaginary part on the
    # population of |01>; at period 3 the state still passes every invariant
    # check (Hermiticity error 4.1e-10 < HERM_TOL) but its magnetization
    # carries an imaginary residue of 1.9e-10, above the 1e-10 bound
    cfg = SpinNetworkConfig(n_sites=2)
    prop = block_propagator(cfg)
    blocks = dict(prop.blocks)
    blocks[(1, 1)] = blocks[(1, 1)].copy()
    blocks[(1, 1)][0] *= 1.0 + 4e-10j
    step = replace(prop, blocks=blocks)
    rho0 = build_initial_state(InitialStateSpec(kind="pure_pattern", pattern="1+"), 2)
    with pytest.raises(StateInvariantError) as expected:
        per_period_run(rho0, cfg, 3, step)
    with pytest.raises(StateInvariantError, match="imaginary residue above 1e-10") as got:
        run_stroboscopic(rho0, cfg, 3, dynamical_map=step)
    assert (got.value.period, str(got.value)) == (3, str(expected.value))
