"""The real Hermitian-basis route for the diagonal sector blocks (k, k).

A Hermiticity-preserving block on the c x c matrices of one sector is a real
matrix in the Hermitian basis; the segment propagator exponentiates and
``sector_eigenvalues`` diagonalises that real form.  The complex route it
replaced survives in ``tests/helpers.py`` and is compared against it in
``tests/test_sector_symmetry.py``.
"""

import numpy as np
import pytest
from helpers import perfect_pulse_configs
from hypothesis import given

from dtcsim import floquet_2T_sector_blocks, hamiltonian_interaction
from dtcsim.floquet import _segment_blocks
from dtcsim.spectra import sector_eigenvalues
from dtcsim.superop import (
    HERMITIAN_REAL_TOL,
    from_hermitian_basis,
    to_hermitian_basis,
    vectorize,
)


def dense_hermitian_basis(c):
    """T with rows conj(vec(E)) for the Hermitian basis elements E, built entry
    by entry in the order :func:`to_hermitian_basis` uses."""
    T = np.zeros((c * c, c * c), dtype=complex)
    s = 1.0 / np.sqrt(2.0)
    for a in range(c):
        for b in range(c):
            E = np.zeros((c, c), dtype=complex)
            if a < b:
                E[a, b] = E[b, a] = s
            elif a > b:
                E[b, a], E[a, b] = 1j * s, -1j * s
            else:
                E[a, a] = 1.0
            T[a * c + b] = vectorize(E).conj()
    return T


@pytest.mark.parametrize("c", [1, 2, 3, 5])
def test_basis_change_matches_dense_unitary(c):
    T = dense_hermitian_basis(c)
    assert np.abs(T @ T.conj().T - np.eye(c * c)).max() < 1e-15
    rng = np.random.default_rng(c)
    M = rng.normal(size=(c * c, c * c)) + 1j * rng.normal(size=(c * c, c * c))
    assert np.abs(to_hermitian_basis(M) - T @ M @ T.conj().T).max() < 1e-14
    assert np.abs(from_hermitian_basis(M) - T.conj().T @ M @ T).max() < 1e-14


def test_non_hermiticity_preserving_block_makes_sector_eigenvalues_raise(small_config):
    blocks = floquet_2T_sector_blocks(small_config)
    sector_eigenvalues(blocks, 2.0 * small_config.period)  # the intact blocks pass
    bumped = blocks[(1, 1)].copy()
    bumped[0, 1] += 1e-9  # moves X[0, 1] into the population X[0, 0]
    blocks[(1, 1)] = bumped
    with pytest.raises(ValueError, match=r"block \(1, 1\) does not preserve Hermiticity"):
        sector_eigenvalues(blocks, 2.0 * small_config.period)


def imaginary_residue(block):
    R = to_hermitian_basis(block)
    return np.abs(R.imag).max() / max(1.0, np.abs(R).max())


@given(perfect_pulse_configs())
def test_diagonal_blocks_are_real_in_the_hermitian_basis(cfg):
    segment, sectors = _segment_blocks(hamiltonian_interaction(cfg), cfg, cfg.t2)
    phi_2T = floquet_2T_sector_blocks(cfg)
    rng = np.random.default_rng(cfg.n_sites)
    for k, sector in enumerate(sectors):
        c2 = len(sector) ** 2
        M = rng.normal(size=(c2, c2)) + 1j * rng.normal(size=(c2, c2))
        for block in (segment[(k, k)], phi_2T[(k, k)], M):
            assert np.abs(from_hermitian_basis(to_hermitian_basis(block)) - block).max() < 1e-14
        assert imaginary_residue(segment[(k, k)]) <= HERMITIAN_REAL_TOL, k
        assert imaginary_residue(phi_2T[(k, k)]) <= HERMITIAN_REAL_TOL, k
