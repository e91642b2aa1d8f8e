"""The real Hermitian-basis route for the diagonal sector blocks (k, k).

A Hermiticity-preserving block on the c x c matrices of one sector is a real
matrix in the Hermitian basis.  The segment generator is built directly in
that basis, the segment propagator exponentiates it, ``floquet_2T_sector_blocks``
multiplies the real blocks through the spin flip's signed permutation and
``sector_eigenvalues`` diagonalises the product.  The complex route it
replaced survives in ``tests/helpers.py`` (the basis change, the Kronecker
generator) and is compared against it here and in
``tests/test_sector_symmetry.py``.
"""

from itertools import combinations_with_replacement

import numpy as np
import pytest
from helpers import (
    assert_spectra_match,
    joined_segment_blocks,
    kronecker_segment_generator,
    perfect_pulse_configs,
    to_hermitian_basis,
)
from hypothesis import given

from dtcsim import SpinNetworkConfig, floquet_2T_sector_blocks, hamiltonian_interaction
from dtcsim.floquet import _flip_image, _joined, _kick_folds, pair_reflection, parity_halves
from dtcsim.operators import excitation_sectors
from dtcsim.spectra import sector_eigenvalues
from dtcsim.superop import (
    HERMITIAN_REAL_TOL,
    dephasing_rates,
    from_hermitian_basis,
    hermitian_generator,
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


def dense_signed_permutation(source, sign):
    P = np.zeros((len(source), len(source)))
    P[np.arange(len(source)), source] = sign
    return P


def test_non_hermiticity_preserving_block_makes_sector_eigenvalues_raise(small_config):
    blocks = floquet_2T_sector_blocks(small_config)
    sector_eigenvalues(blocks, small_config)  # the intact blocks pass
    assert blocks[(1, 1)].dtype == float
    bumped = blocks[(1, 1)].astype(complex)
    sector_eigenvalues({**blocks, (1, 1): bumped}, small_config)  # a zero imaginary part passes
    bumped[0, 1] += 1e-9j  # an imaginary part is a map that breaks Hermiticity
    blocks[(1, 1)] = bumped
    with pytest.raises(ValueError, match=r"block \(1, 1\) does not preserve Hermiticity"):
        sector_eigenvalues(blocks, small_config)


@pytest.mark.parametrize("n_sites", [1, 2, 3, 4, 5])
def test_direct_real_generator_matches_the_kronecker_generator(n_sites):
    rng = np.random.default_rng(n_sites)
    cfg = SpinNetworkConfig(n_sites=n_sites, j0=1.3, alpha=0.8, gamma=0.07, t2=0.6,
                            disorder=rng.uniform(0.0, 3.0, n_sites))
    H = hamiltonian_interaction(cfg).real
    rates = dephasing_rates(n_sites, cfg.gamma).reshape(cfg.dim, cfg.dim)
    for k, sector in enumerate(excitation_sectors(n_sites)):
        sub = np.ix_(sector, sector)
        R = hermitian_generator(H[sub], rates[sub]) * cfg.t2
        assert R.dtype == float
        assert np.abs(R - to_hermitian_basis(kronecker_segment_generator(cfg, k, k))).max() < 1e-14


# sectors k and N - k of c = 1, 2, 3, 5 and 10 states, with c as the id
@pytest.mark.parametrize("n_sites, k", [(1, 0), (2, 1), (3, 1), (5, 1), (5, 2)],
                         ids=["1", "2", "3", "5", "10"])
def test_spin_flip_is_the_reversal_in_the_hermitian_basis(n_sites, k):
    # a whole block (N - k, N - k) flipped into (k, k)
    sectors = excitation_sectors(n_sites)
    c = len(sectors[k])
    (fold,) = _kick_folds(n_sites, n_sites - k, n_sites - k, split=False)
    P = dense_signed_permutation(*fold)
    assert np.abs(P - to_hermitian_basis(np.eye(c * c)[::-1])).max() < 1e-15
    assert np.array_equal(P, P.T) and np.array_equal(P @ P, np.eye(c * c))
    M = np.random.default_rng(c).normal(size=(c * c, c * c))
    flipped, = _flip_image({(n_sites - k, n_sites - k): (M,)}, sectors, k, k)
    assert np.array_equal(flipped, P @ M @ P)


@pytest.mark.parametrize("n_sites", [1, 2, 3, 4, 5, 6])
def test_reflection_is_an_involution_and_the_hermitian_form_of_the_site_mirror(n_sites):
    # mirrors[k] sends the states of sector k, in sorted order, to their
    # mirror images; a diagonal pair is compared in the Hermitian basis, an
    # off-diagonal one on its row-stacked matrix elements
    sectors = excitation_sectors(n_sites)
    mirrors = []
    for sector in sectors:
        mirrored = [int(format(int(i), f"0{n_sites}b")[::-1], 2) for i in sector]
        order = np.searchsorted(sector, mirrored)
        assert np.array_equal(sector[order], mirrored)
        assert np.array_equal(order[order], np.arange(len(sector)))
        mirrors.append(np.eye(len(sector))[order])
    for kl, kr in np.ndindex(n_sites + 1, n_sites + 1):
        P = dense_signed_permutation(*pair_reflection(n_sites, kl, kr))
        mirror = np.kron(mirrors[kl], mirrors[kr])
        if kl == kr:
            assert np.abs(P - to_hermitian_basis(mirror)).max() < 1e-15
        else:
            assert np.array_equal(P, mirror), (kl, kr)
        assert np.array_equal(P @ P, np.eye(len(P)))


@pytest.mark.parametrize("disorder, commutes", [
    (np.zeros(5), True), (np.array([0.4, 2.1, 1.3, 2.1, 0.4]), True),
    (np.array([0.4, 2.1, 1.3, 2.0, 0.4]), False)], ids=["clean", "palindromic", "generic"])
def test_reflection_commutes_with_every_block_exactly_when_the_disorder_is_a_palindrome(
        disorder, commutes):
    cfg = SpinNetworkConfig(n_sites=5, j0=1.1, alpha=1.3, gamma=0.07, disorder=disorder)
    for (kl, kr), block in floquet_2T_sector_blocks(cfg).items():
        P = dense_signed_permutation(*pair_reflection(5, kl, kr))
        residual = np.abs(P @ block - block @ P).max()
        if commutes:
            assert residual < 1e-13, (kl, kr)
        elif len(block) > 1:
            assert residual > 1e-3, (kl, kr)


@pytest.mark.parametrize("n_sites", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("dtype", [float, complex])
def test_parity_halves_project_and_from_parity_halves_puts_them_back(n_sites, dtype):
    # with P the dense reflection, the halves of any M put back by _joined
    # (once from_parity_halves) are its part that commutes with P,
    # (M + P M P) / 2; the +1 half has the dimension (d + Tr P) / 2; and the
    # halves of a commuting block share its spectrum.  Every pair kl <= kr.
    rng = np.random.default_rng(n_sites)
    sectors = excitation_sectors(n_sites)
    for kl, kr in combinations_with_replacement(range(n_sites + 1), 2):
        P = dense_signed_permutation(*pair_reflection(n_sites, kl, kr))
        d = len(P)
        M = rng.normal(size=(d, d)).astype(dtype)
        if dtype is complex:
            M += 1j * rng.normal(size=(d, d))
        halves = parity_halves(M, n_sites, kl, kr)
        assert [h.dtype for h in halves] == [np.dtype(dtype)] * 2
        assert [len(h) for h in halves] == [(d + round(np.trace(P))) // 2,
                                            (d - round(np.trace(P))) // 2]
        back = _joined(halves, sectors, kl, kr)
        assert back.dtype == np.dtype(dtype)
        assert np.abs(back - (M + P @ M @ P) / 2).max() < 1e-14, (kl, kr)
        block = M + P @ M @ P
        split = np.concatenate([np.linalg.eigvals(h) for h in parity_halves(block, n_sites, kl, kr)
                                if len(h)])
        assert_spectra_match(split, np.linalg.eigvals(block), 1e-10)


def imaginary_residue(block):
    R = to_hermitian_basis(block)
    return np.abs(R.imag).max() / max(1.0, np.abs(R).max())


@given(perfect_pulse_configs())
def test_diagonal_blocks_are_real_in_the_hermitian_basis(cfg):
    segment, sectors = joined_segment_blocks(cfg)
    phi_2T = floquet_2T_sector_blocks(cfg)
    rng = np.random.default_rng(cfg.n_sites)
    for k, sector in enumerate(sectors):
        c2 = len(sector) ** 2
        M = rng.normal(size=(c2, c2)) + 1j * rng.normal(size=(c2, c2))
        assert np.abs(from_hermitian_basis(to_hermitian_basis(M)) - M).max() < 1e-14
        # Phi_2T block (k, k) is built for the orbit representatives 2k <= N only
        diagonal = [segment[(k, k)]] + ([phi_2T[(k, k)]] if (k, k) in phi_2T else [])
        for block in diagonal:
            assert block.dtype == float, k
            complex_form = from_hermitian_basis(block)
            assert np.abs(to_hermitian_basis(complex_form) - block).max() < 1e-14
            assert imaginary_residue(complex_form) <= HERMITIAN_REAL_TOL, k
