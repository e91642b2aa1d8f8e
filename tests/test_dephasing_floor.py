"""The diagonal-block gap of ``sector_gap`` against the all-block and dense routes.

``sector_gap`` diagonalises only the blocks (k, k) of Phi_2T and stands the
dephasing floor 2 gamma t2 / T in for every off-diagonal block.  That rests
on a log-norm bound: on sector pair (kl, kr) the commutator part of the
segment generator is anti-Hermitian, the dephasing rates are -2 gamma times
a Hamming distance of at least |kl - kr|, and the pi kicks are unitary, so
every multiplier obeys |mu| <= exp(-4 gamma t2 |kl - kr|).  Block (0, 1),
whose Hamming distance is 1 throughout, attains it.
"""

from dataclasses import replace

import numpy as np
import pytest
from helpers import perfect_pulse_configs
from hypothesis import given

from dtcsim import SpinNetworkConfig, floquet_2T_sector_blocks, sector_gap
from dtcsim.experiments import realization_seed
from dtcsim.operators import sample_disorder
from dtcsim.spectra import (
    ZERO_THRESHOLD,
    gap_from_eigenvalues,
    liouvillian_gap,
    sector_eigenvalues,
)


def all_block_gap(config):
    """The gap from every Phi_2T block, one eigvals per orbit."""
    blocks = floquet_2T_sector_blocks(config)
    return gap_from_eigenvalues(sector_eigenvalues(blocks, config))


@given(perfect_pulse_configs(gammas=(0.07, 2.0)))
def test_off_diagonal_multipliers_obey_the_dephasing_bound(cfg):
    for (kl, kr), block in floquet_2T_sector_blocks(cfg).items():
        if kl == kr:
            continue
        bound = np.exp(-4.0 * cfg.gamma * cfg.t2 * abs(kl - kr))
        modulus = np.abs(np.linalg.eigvals(block))
        assert modulus.max() <= bound * (1.0 + 1e-12), (kl, kr)
        if (kl, kr) == (0, 1):
            assert np.abs(modulus / bound - 1.0).max() <= 1e-12


@pytest.mark.parametrize("n_sites", [1, 3, 4])
def test_no_dephasing_floor_keeps_the_all_block_route(n_sites):
    cfg = SpinNetworkConfig(n_sites=n_sites, disorder=np.linspace(0.0, 2.0, n_sites))
    tiny = 0.5 * ZERO_THRESHOLD * cfg.period / (2.0 * cfg.t2)  # floor = ZERO_THRESHOLD / 2
    for gamma in (0.0, tiny):
        weak = replace(cfg, gamma=gamma)
        assert sector_gap(weak) == all_block_gap(weak)


SIX_SITES = SpinNetworkConfig()  # paper defaults, gamma T = 0.02


@pytest.mark.parametrize("config,set_by_floor", [
    (SIX_SITES, True),
    (SIX_SITES.with_disorder(sample_disorder(6, 30.0 * SIX_SITES.j0,
                                             realization_seed(12345, 0))), False),
])
def test_six_site_gap_matches_all_blocks(config, set_by_floor):
    fast, full = sector_gap(config), all_block_gap(config)
    assert fast.n_steady == full.n_steady == 7
    assert fast.gap == pytest.approx(full.gap, abs=1e-12)
    floor = 2.0 * config.gamma * config.t2 / config.period
    if set_by_floor:
        assert fast.gap == floor
    else:
        assert fast.gap * config.period == pytest.approx(0.0085, abs=5e-4)
        assert fast.gap == full.gap


def test_default_gap_matches_the_dense_eigendecomposition(default_config, default_spectral):
    fast, dense = sector_gap(default_config), liouvillian_gap(default_spectral)
    assert fast.n_steady == dense.n_steady
    assert fast.gap == pytest.approx(dense.gap, abs=1e-10)
