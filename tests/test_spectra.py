"""Eigendecomposition, gaps, steady states and sector blocks."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dtcsim import (
    SpinNetworkConfig,
    eigendecompose,
    excitation_superop_commutant_check,
    floquet_2T_sector_blocks,
    floquet_map,
    floquet_map_2T,
    liouvillian,
    liouvillian_gap,
    sector_gap,
    spectrum_2T,
    steady_states,
    vectorize,
)
from dtcsim.spectra import sector_eigenvalues, spectral_distance
from helpers import kdtree_distance


def test_unitary_map_spectrum_on_unit_circle():
    cfg = SpinNetworkConfig(n_sites=3, gamma=0.0, disorder=np.array([0.2, 0.0, 1.1]))
    spec = eigendecompose(floquet_map(cfg))
    assert np.abs(np.abs(spec.map_eigenvalues) - 1.0).max() < 1e-10
    assert np.abs(spec.eigenvalues.real).max() < 1e-10


def test_eigendecompose_sorted_and_biorthogonal(small_config):
    spec = eigendecompose(floquet_map_2T(small_config))
    assert np.all(np.diff(spec.eigenvalues.real) <= 1e-14)
    gram = spec.left_vectors.conj().T @ spec.right_vectors
    assert np.abs(gram - np.eye(gram.shape[0])).max() < 1e-8


def test_eigendecompose_reconstructs_evolution(small_config):
    # rho(2T) rebuilt from the spectral decomposition of the map
    dmap = floquet_map_2T(small_config)
    spec = eigendecompose(dmap)
    rho0 = np.zeros((8, 8), dtype=complex)
    rho0[6, 6] = 1.0
    vec0 = vectorize(rho0)
    weights = spec.left_vectors.conj().T @ vec0
    rebuilt = spec.right_vectors @ (np.exp(spec.eigenvalues * dmap.horizon) * weights)
    assert np.abs(rebuilt - dmap.matrix @ vec0).max() < 1e-8


def test_eigendecompose_single_qubit_dephasing_generator():
    L = liouvillian(np.zeros((2, 2), dtype=complex), 1, 0.05)
    spec = eigendecompose(L)
    assert np.allclose(np.sort(spec.eigenvalues.real), [-0.1, -0.1, 0.0, 0.0], atol=1e-13)
    assert spec.map_eigenvalues is None


def test_eigendecompose_reports_defective_input():
    jordan = np.array([[1.0, 1.0], [0.0, 1.0]])
    with pytest.raises(np.linalg.LinAlgError, match="defective"):
        eigendecompose(jordan)


def test_gap_single_qubit_dephasing():
    L = liouvillian(np.zeros((2, 2), dtype=complex), 1, 0.01)
    result = liouvillian_gap(eigendecompose(L))
    assert result.gap == pytest.approx(0.02, abs=1e-12)
    assert result.n_steady == 2
    assert result.relaxation_time == pytest.approx(50.0, rel=1e-9)


def test_gap_unitary_dynamics_has_no_gap():
    cfg = SpinNetworkConfig(n_sites=2, gamma=0.0)
    result = liouvillian_gap(eigendecompose(floquet_map_2T(cfg)))
    assert result.gap is None
    assert result.relaxation_time is None
    assert result.n_steady == 16



def test_relaxation_time_is_a_time_not_a_count_of_periods():
    # T = 0.6: the gap 2 gamma t2 / T = 0.02 gives tau = 50 time units, 83.3 periods
    cfg = SpinNetworkConfig(n_sites=2, t1=0.3, t2=0.3, g=np.pi / 0.6)
    result = sector_gap(cfg)
    assert cfg.period == pytest.approx(0.6)
    assert result.relaxation_time == pytest.approx(1.0 / result.gap, rel=1e-15)
    assert result.relaxation_time == pytest.approx(50.0, rel=1e-9)
    assert result.relaxation_time / cfg.period == pytest.approx(250.0 / 3.0, rel=1e-9)

def test_steady_states_single_qubit_dephasing():
    L = liouvillian(np.zeros((2, 2), dtype=complex), 1, 0.3)
    states, coherences = steady_states(eigendecompose(L))
    assert len(states) + len(coherences) == 2
    # the zero manifold spans the two populations
    stack = np.stack([vectorize(s) for s in states + coherences])
    projectors = np.array([[1, 0, 0, 0], [0, 0, 0, 1.0]])
    combined = np.vstack([stack, projectors])
    assert np.linalg.matrix_rank(combined, tol=1e-10) == 2


def test_steady_states_are_fixed_points(small_config):
    dmap = floquet_map_2T(small_config)
    states, _ = steady_states(eigendecompose(dmap))
    assert len(states) == small_config.n_sites + 1  # one per excitation sector
    for rho in states:
        assert abs(np.trace(rho) - 1.0) < 1e-10
        vec = vectorize(rho)
        assert np.abs(dmap.matrix @ vec - vec).max() < 1e-8


def test_near_zero_epsilon_takes_the_dense_route(monkeypatch):
    # perfect_pulse compares epsilon with 0 exactly: 1e-15 is a rotation error,
    # whose spectrum comes from the dense map and matches the block route
    from dtcsim import spectra

    cfg = SpinNetworkConfig(n_sites=3, disorder=np.array([0.5, 1.5, 0.2]))
    exact = spectrum_2T(cfg)

    def no_blocks(*args, **kwargs):
        raise AssertionError("block route taken")

    monkeypatch.setattr(spectra, "floquet_2T_sector_blocks", no_blocks)
    near = spectrum_2T(replace(cfg, epsilon=1e-15))
    assert near.size == exact.size
    assert spectral_distance(near, exact) < 1e-10


def test_commutant_residual_small_at_zero_error(small_config):
    assert excitation_superop_commutant_check(floquet_map_2T(small_config)) < 1e-10


def test_commutant_residual_large_with_rotation_error():
    cfg = SpinNetworkConfig(n_sites=3, epsilon=0.05)
    assert excitation_superop_commutant_check(floquet_map_2T(cfg)) > 1e-3


def test_commutant_residual_diagonal_dynamics():
    cfg = SpinNetworkConfig(n_sites=2, j0=0.0)
    assert excitation_superop_commutant_check(floquet_map_2T(cfg)) < 1e-12


@given(n_a=st.integers(1, 1100), n_b=st.integers(1, 1100), repeats=st.integers(0, 30),
       scale=st.sampled_from([0.0, 1e-9, 0.1]), seed=st.integers(0, 2**32 - 1))
def test_spectral_distance_matches_the_kdtree_reference(n_a, n_b, repeats, scale, seed):
    # clouds of unequal size (past one and two 512-point chunks) in the
    # disc of radius 1 that holds every multiplier; a repeats some of its
    # points exactly, and b is drawn from a, exactly (scale 0) or moved
    rng = np.random.default_rng(seed)
    a = rng.uniform(-0.7, 0.7, n_a) + 1j * rng.uniform(-0.7, 0.7, n_a)
    a = np.concatenate([a, rng.choice(a, repeats)])
    b = rng.choice(a, n_b) + scale * (rng.uniform(-1, 1, n_b) + 1j * rng.uniform(-1, 1, n_b))
    assert abs(spectral_distance(a, b) - kdtree_distance(a, b)) <= 1e-15


def test_sector_block_shapes(small_config):
    from math import comb

    blocks = floquet_2T_sector_blocks(small_config)
    assert list(blocks) == [(0, 0), (0, 1), (0, 2), (0, 3), (1, 1), (1, 2)]
    assert list(floquet_2T_sector_blocks(small_config, diagonal=True)) == [(0, 0), (1, 1)]
    for (kl, kr), block in blocks.items():
        size = comb(3, kl) * comb(3, kr)
        assert block.shape == (size, size)


def test_block_and_dense_spectra_agree(small_config):
    from helpers import assert_spectra_match

    dense = np.linalg.eigvals(floquet_map_2T(small_config).matrix)
    blocks = floquet_2T_sector_blocks(small_config)
    horizon = 2.0 * small_config.period
    pooled = np.exp(sector_eigenvalues(blocks, small_config) * horizon)
    assert_spectra_match(dense, pooled, 1e-8)


def test_block_and_dense_gap_agree(small_config):
    dense = liouvillian_gap(eigendecompose(floquet_map_2T(small_config)))
    fast = sector_gap(small_config)
    assert fast.gap == pytest.approx(dense.gap, abs=1e-8)
    assert fast.n_steady == dense.n_steady


# -- six-site checks sharing the expensive session fixtures ------------------

def test_default_spectrum_structure(default_spectral):
    from helpers import assert_spectra_match

    lam = default_spectral.eigenvalues
    assert lam.real.max() < 1e-10                    # no growing modes
    assert np.abs(lam).min() < 1e-10                 # a zero mode exists
    assert_spectra_match(lam, lam.conj(), 1e-8)      # closed under conjugation


def test_default_block_vs_dense_eigenvalues(default_config, default_spectral):
    from helpers import assert_spectra_match

    blocks = floquet_2T_sector_blocks(default_config)
    horizon = 2.0 * default_config.period
    pooled = np.exp(sector_eigenvalues(blocks, default_config) * horizon)
    assert_spectra_match(default_spectral.map_eigenvalues, pooled, 1e-8)


def test_default_biorthogonality_spot_check(default_spectral):
    right = default_spectral.right_vectors[:, :24]
    left = default_spectral.left_vectors[:, :24]
    gram = left.conj().T @ right
    assert np.abs(gram - np.eye(24)).max() < 1e-8


def test_default_spectral_reconstruction(default_spectral, default_map_2T, seeded_state):
    vec0 = vectorize(seeded_state)
    weights = default_spectral.left_vectors.conj().T @ vec0
    horizon = default_spectral.source_horizon
    rebuilt = default_spectral.right_vectors @ (
        np.exp(default_spectral.eigenvalues * horizon) * weights)
    assert np.abs(rebuilt - default_map_2T.matrix @ vec0).max() < 1e-8


def test_default_block_path_matches_dense_gap(default_config, default_spectral):
    dense = liouvillian_gap(default_spectral)
    fast = sector_gap(default_config)
    assert fast.gap == pytest.approx(dense.gap, abs=1e-8)


def test_default_block_sizes(default_config):
    blocks = floquet_2T_sector_blocks(default_config)
    assert len(blocks) == 16  # one per orbit of the 49
    assert blocks[(3, 3)].shape == (400, 400)
    assert len(floquet_2T_sector_blocks(default_config, diagonal=True)) == 4
