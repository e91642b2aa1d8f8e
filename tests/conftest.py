"""Shared fixtures; the expensive six-site objects are built once per session."""

import numpy as np
import pytest
from hypothesis import settings

# Derandomized, so a property test draws the same examples on every run; the
# example budget keeps the property tests under 30 s together.
settings.register_profile("dtcsim", derandomize=True, deadline=None, max_examples=100)
settings.load_profile("dtcsim")

from dtcsim import (
    InitialStateSpec,
    SpinNetworkConfig,
    build_initial_state,
    eigendecompose,
    floquet_map,
    run_stroboscopic,
)
from dtcsim.floquet import DynamicalMap


@pytest.fixture(scope="session")
def default_config():
    """Six sites, j0*T/2pi = 0.2, alpha = 1.51, gamma*T = 0.02, no disorder."""
    return SpinNetworkConfig()


@pytest.fixture(scope="session")
def small_config():
    """Three-site analogue used by the fast structural tests."""
    return SpinNetworkConfig(n_sites=3, j0=0.9, alpha=1.2, gamma=0.05,
                             disorder=np.array([0.3, 0.0, 0.7]))


@pytest.fixture(scope="session")
def default_map(default_config):
    return floquet_map(default_config)


@pytest.fixture(scope="session")
def default_map_2T(default_map):
    # squared one-period map: the dense route, independent of the
    # sector-block construction it is tested against
    phi = default_map.matrix
    return DynamicalMap(matrix=phi @ phi, period_multiple=2,
                        horizon=2.0 * default_map.horizon)


@pytest.fixture(scope="session")
def default_spectral(default_map_2T):
    """Dense 4096 x 4096 eigendecomposition; the slow fixture (minutes)."""
    return eigendecompose(default_map_2T)


@pytest.fixture(scope="session")
def seeded_state(default_config):
    """|111> on region A, |+++> on region B."""
    return build_initial_state(
        InitialStateSpec(kind="pure_pattern", pattern="111+++"),
        default_config.n_sites,
    )


@pytest.fixture(scope="session")
def default_trace(seeded_state, default_config, default_map):
    return run_stroboscopic(seeded_state, default_config, 201,
                            dynamical_map=default_map)


@pytest.fixture(scope="session")
def gamma0_config(default_config):
    from dataclasses import replace
    return replace(default_config, gamma=0.0)


@pytest.fixture(scope="session")
def gamma0_trace(seeded_state, gamma0_config):
    return run_stroboscopic(seeded_state, gamma0_config, 201)
