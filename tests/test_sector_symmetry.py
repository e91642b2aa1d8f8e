"""The symmetry-reduced sector route against brute force over every block.

The reduced route exponentiates only the segment blocks with kl <= kr, takes
the negated-disorder segment from the spin-flip relation and diagonalises one
Phi_2T block per orbit; the brute-force route in ``helpers`` does none of
that.
"""

import numpy as np
import pytest
from helpers import (
    assert_spectra_match,
    brute_force_2T_blocks,
    brute_force_2T_rates,
    brute_force_segment_blocks,
)

import dtcsim.spectra
from dtcsim import (
    SpinNetworkConfig,
    SweepSpec,
    disorder_gap_sweep,
    floquet_2T_sector_blocks,
    hamiltonian_interaction,
    sector_gap,
)
from dtcsim.floquet import _segment_blocks
from dtcsim.spectra import gap_from_eigenvalues, sector_eigenvalues

CASES = [(n, gamma) for n in (1, 2, 3, 4) for gamma in (0.0, 0.07)]


def random_config(n_sites: int, gamma: float) -> SpinNetworkConfig:
    """Perfect pi pulse with random coupling, segment lengths and disorder."""
    rng = np.random.default_rng((n_sites, int(gamma * 100)))
    t1 = rng.uniform(0.3, 0.45)
    t2 = rng.uniform(0.55, 0.9)
    return SpinNetworkConfig(
        n_sites=n_sites, j0=rng.uniform(0.5, 2.0), alpha=rng.uniform(0.5, 2.5),
        g=np.pi / (2.0 * t1), t1=t1, t2=t2, gamma=gamma,
        disorder=rng.uniform(0.0, 3.0, n_sites),
    )


@pytest.mark.parametrize("n_sites,gamma", CASES)
def test_derived_blocks_match_direct_exponentials(n_sites, gamma):
    cfg = random_config(n_sites, gamma)
    derived, _ = _segment_blocks(hamiltonian_interaction(cfg), cfg, cfg.t2)
    direct = brute_force_segment_blocks(hamiltonian_interaction(cfg), cfg)
    assert list(derived) == list(direct)
    for key in direct:
        assert np.abs(derived[key] - direct[key]).max() < 1e-12, key
    blocks = floquet_2T_sector_blocks(cfg)
    for key, block in brute_force_2T_blocks(cfg).items():
        assert np.abs(blocks[key] - block).max() < 1e-12, key


@pytest.mark.parametrize("n_sites,gamma", CASES)
def test_reduced_spectrum_matches_all_blocks(n_sites, gamma):
    cfg = random_config(n_sites, gamma)
    horizon = 2.0 * cfg.period
    reduced = sector_eigenvalues(floquet_2T_sector_blocks(cfg), horizon)
    brute = brute_force_2T_rates(cfg)
    assert reduced.size == cfg.dim**2
    assert_spectra_match(np.exp(reduced * horizon), np.exp(brute * horizon), 1e-10)
    fast, slow = sector_gap(cfg), gap_from_eigenvalues(brute)
    assert fast.n_steady == slow.n_steady
    if slow.gap is None:
        assert fast.gap is None
    else:
        assert fast.gap == pytest.approx(slow.gap, abs=1e-10)


def test_sector_eigenvalues_refuses_blocks_without_the_symmetries():
    cfg = random_config(3, 0.07)
    blocks = floquet_2T_sector_blocks(cfg)
    blocks[(1, 2)] = 1.001 * blocks[(1, 2)]
    with pytest.raises(ValueError, match="block symmetries"):
        sector_eigenvalues(blocks, 2.0 * cfg.period)


def test_sweep_builds_each_distinct_realization_once(monkeypatch):
    calls = []
    original = dtcsim.spectra.floquet_2T_sector_blocks

    def counted(config):
        calls.append(config)
        return original(config)

    monkeypatch.setattr(dtcsim.spectra, "floquet_2T_sector_blocks", counted)
    cfg = SpinNetworkConfig(n_sites=3, j0=0.9)
    result = disorder_gap_sweep(SweepSpec(config=cfg, w_values=(0.0,), n_realizations=3))
    assert len(calls) == 1
    assert np.all(result.gaps == result.gaps[0, 0])
    assert result.failures == ()

    calls.clear()
    result = disorder_gap_sweep(SweepSpec(config=cfg, w_values=(0.0, 2.0), n_realizations=3))
    assert len(calls) == 4
    assert len(set(calls)) == 4
