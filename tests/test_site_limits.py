"""Site-count limits: dense routes refuse N > DENSE_LIMIT, block routes run N = 7."""

from dataclasses import replace

import numpy as np
import pytest

from dtcsim import (
    InitialStateSpec,
    SpinNetworkConfig,
    all_magnetizations,
    build_initial_state,
    excitation_superop_commutant_check,
    floquet,
    hamiltonian_interaction,
    liouvillian,
    negativity,
    ode_oracle_evolve,
    purity,
    run_stroboscopic,
    spectrum_2T,
)
from dtcsim.observables import default_partition

SEVEN = SpinNetworkConfig(n_sites=7)

DENSE_ROUTES = {
    "interaction_propagator": lambda: floquet.interaction_propagator(SEVEN),
    "floquet_map": lambda: floquet.floquet_map(SEVEN),
    "floquet_map_2T": lambda: floquet.floquet_map_2T(SEVEN),
    "liouvillian": lambda: liouvillian(hamiltonian_interaction(SEVEN), 7, SEVEN.gamma),
    "spectrum_2T_epsilon": lambda: spectrum_2T(replace(SEVEN, epsilon=0.05)),
    "commutant_check": lambda: excitation_superop_commutant_check(floquet.floquet_map_2T(SEVEN)),
}


@pytest.mark.parametrize("route", sorted(DENSE_ROUTES))
def test_dense_routes_refuse_seven_sites_before_building_blocks(route, monkeypatch):
    def forbidden(*args):
        raise AssertionError("a sector block was built before the dense-limit check")

    monkeypatch.setattr(floquet, "_segment_blocks", forbidden)
    with pytest.raises(ValueError, match=r"n_sites = 7 exceeds the dense limit 6 of routes "
                                         r"that form a 4\^N x 4\^N matrix"):
        DENSE_ROUTES[route]()


def test_seven_site_block_stepping_matches_rk4():
    # the one N = 7 propagator build of the suite, for the 20 of 36 stored
    # pairs that a run from 1111+++ reaches, as evolve builds it
    rho0 = build_initial_state(InitialStateSpec(kind="pure_pattern", pattern="1111+++"), 7)
    prop = floquet.block_propagator(SEVEN, rho0)
    assert len(prop.blocks) == 20 and (3, 4) not in prop.blocks
    trace = run_stroboscopic(rho0, SEVEN, 2, dynamical_map=prop)
    rho = ode_oracle_evolve(rho0, SEVEN, 2, dt=SEVEN.period / 500, richardson_check=False)
    assert np.abs(prop.apply(prop.apply(rho0)) - rho).max() < 1e-6
    assert trace.worst_margins.trace_error < 1e-12
    assert np.abs(trace.magnetization[2] - all_magnetizations(rho)).max() < 1e-6
    assert abs(trace.negativity[2] - negativity(rho, default_partition(7))) < 1e-6
    assert abs(trace.purity[2] - purity(rho)) < 1e-6
