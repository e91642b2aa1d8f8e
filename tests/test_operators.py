"""Operator construction: Pauli algebra, embeddings, Hamiltonians, disorder."""

import numpy as np
import pytest

from dtcsim import (
    SpinNetworkConfig,
    coupling_matrix,
    embed,
    excitation_number_operator,
    hamiltonian_interaction,
    hamiltonian_kick,
    pauli,
    sample_disorder,
)
from dtcsim.operators import excitation_counts, excitation_sectors, z_sign_table

KET1 = np.array([0.0, 1.0], dtype=complex)


def test_pauli_z_eigenbasis_convention():
    # |1> is the +1 eigenvector of sigma_z
    assert np.allclose(pauli("z") @ KET1, KET1)


def test_pauli_algebra():
    sx, sy, sz = pauli("x"), pauli("y"), pauli("z")
    assert np.allclose(sx @ sx, np.eye(2))
    assert np.allclose(sy @ sy, np.eye(2))
    assert np.allclose(sx @ sy, 1j * sz)
    assert np.allclose(sy @ sz, 1j * sx)
    assert np.allclose(sz @ sx, 1j * sy)
    for mu in "xyz":
        assert np.allclose(pauli(mu), pauli(mu).conj().T)
        assert abs(np.trace(pauli(mu))) < 1e-15


def test_pauli_rejects_unknown_axis():
    with pytest.raises(ValueError):
        pauli("w")


def test_embed_leftmost_site_convention():
    assert np.allclose(embed(pauli("z"), 0, 2), np.kron(pauli("z"), np.eye(2)))


def test_embed_site1_eigenvalue():
    ket10 = np.kron(KET1, np.array([1.0, 0.0]))  # |10>
    assert np.allclose(embed(pauli("z"), 1, 2) @ ket10, -ket10)


def test_embed_traceless():
    assert abs(np.trace(embed(pauli("x"), 2, 4))) < 1e-12


def test_embed_site_out_of_range():
    with pytest.raises(ValueError):
        embed(pauli("x"), 4, 4)


def test_coupling_matrix_unit_distance():
    J = coupling_matrix(4, 0.7, 2.3)
    assert J[0, 1] == pytest.approx(0.7, abs=0)


def test_coupling_matrix_power_law_value():
    # 2^(-1.51), frozen from a direct high-precision evaluation
    J = coupling_matrix(3, 1.0, 1.51)
    assert J[0, 2] == pytest.approx(0.3511112189344993, abs=1e-15)


def test_coupling_matrix_all_to_all_at_alpha_zero():
    J = coupling_matrix(5, 1.3, 0.0)
    off = J[~np.eye(5, dtype=bool)]
    assert np.allclose(off, 1.3)


@pytest.mark.parametrize("alpha", [0.0, 0.7, 1.51, 3.0])
def test_coupling_matrix_symmetric_zero_diagonal(alpha):
    J = coupling_matrix(6, -0.4, alpha)
    assert np.allclose(J, J.T)
    assert np.allclose(np.diag(J), 0.0)


def test_kick_single_site():
    cfg = SpinNetworkConfig(n_sites=1, g=np.pi, epsilon=0.0)
    assert np.allclose(hamiltonian_kick(cfg), np.pi * pauli("x"))


def test_kick_vanishes_at_full_error():
    cfg = SpinNetworkConfig(n_sites=2, epsilon=1.0)
    assert np.allclose(hamiltonian_kick(cfg), 0.0)


def test_kick_two_site_eigenvalues():
    cfg = SpinNetworkConfig(n_sites=2, g=np.pi, epsilon=0.0)
    ev = np.linalg.eigvalsh(hamiltonian_kick(cfg))
    assert np.allclose(ev, [-2 * np.pi, 0.0, 0.0, 2 * np.pi], atol=1e-12)


def test_kick_linear_in_error():
    base = SpinNetworkConfig(n_sites=3, epsilon=0.0)
    for eps in (0.1, 0.5, 0.97):
        cfg = SpinNetworkConfig(n_sites=3, epsilon=eps)
        assert np.allclose(hamiltonian_kick(cfg), (1 - eps) * hamiltonian_kick(base))


def test_interaction_two_site_structure():
    cfg = SpinNetworkConfig(n_sites=2, j0=0.8)
    H = hamiltonian_interaction(cfg)
    expected = np.zeros((4, 4), dtype=complex)
    expected[1, 2] = expected[2, 1] = 2 * 0.8  # |01> <-> |10>
    assert np.allclose(H, expected, atol=1e-14)


def test_interaction_commutes_with_excitation_number():
    rng = np.random.default_rng(3)
    for _ in range(3):
        cfg = SpinNetworkConfig(n_sites=4, j0=1.1, alpha=rng.uniform(0, 2),
                                disorder=rng.uniform(0, 5, 4))
        H = hamiltonian_interaction(cfg)
        N_op = excitation_number_operator(4)
        assert np.abs(H @ N_op - N_op @ H).max() < 1e-12


def _brute_force_interaction(cfg):
    """Independent route: matrix elements from bit arithmetic, not kron."""
    n, dim = cfg.n_sites, cfg.dim
    J = coupling_matrix(n, cfg.j0, cfg.alpha)
    signs = z_sign_table(n)
    H = np.zeros((dim, dim), dtype=complex)
    H[np.diag_indices(dim)] = cfg.disorder @ signs
    for i in range(dim):
        for l in range(n):
            for m in range(l + 1, n):
                bit_l = (i >> (n - 1 - l)) & 1
                bit_m = (i >> (n - 1 - m)) & 1
                if bit_l != bit_m:  # XX+YY hops |10> <-> |01>, amplitude 2J
                    j = i ^ (1 << (n - 1 - l)) ^ (1 << (n - 1 - m))
                    H[j, i] += 2.0 * J[l, m]
    return H


def test_interaction_matches_brute_force_and_frozen_eigenvalue():
    cfg = SpinNetworkConfig()  # six-site defaults
    H = hamiltonian_interaction(cfg)
    assert np.abs(H - _brute_force_interaction(cfg)).max() < 1e-12
    top = np.linalg.eigvalsh(H)[-1]
    assert top == pytest.approx(11.47519447201677, abs=1e-10)


def test_hamiltonians_hermitian():
    rng = np.random.default_rng(11)
    for _ in range(4):
        cfg = SpinNetworkConfig(n_sites=4, j0=rng.uniform(0.1, 2), alpha=rng.uniform(0, 2),
                                epsilon=rng.uniform(0, 0.5), disorder=rng.uniform(0, 3, 4))
        for H in (hamiltonian_kick(cfg), hamiltonian_interaction(cfg)):
            assert np.abs(H - H.conj().T).max() < 1e-12


def test_excitation_number_basics():
    N3 = excitation_number_operator(3)
    ket111 = np.zeros(8); ket111[7] = 1.0
    ket000 = np.zeros(8); ket000[0] = 1.0
    assert np.allclose(N3 @ ket111, 3 * ket111)
    assert np.allclose(N3 @ ket000, 0.0)
    assert np.trace(excitation_number_operator(6)).real == pytest.approx(6 * 2**5)
    assert set(np.unique(np.diag(N3).real)) == {0.0, 1.0, 2.0, 3.0}


def test_excitation_sectors_partition_the_basis():
    sectors = excitation_sectors(5)
    assert sorted(np.concatenate(sectors)) == list(range(32))
    counts = excitation_counts(5)
    for k, idx in enumerate(sectors):
        assert np.all(counts[idx] == k)


def test_sample_disorder_degenerate_interval():
    assert np.allclose(sample_disorder(6, 0.0, 42), 0.0)


def test_sample_disorder_deterministic():
    a = sample_disorder(8, 2.5, 99)
    b = sample_disorder(8, 2.5, 99)
    assert np.array_equal(a, b)
    assert np.all((a >= 0) & (a <= 2.5))


def test_sample_disorder_mean():
    draws = sample_disorder(100_000, 1.0, 2024)
    assert draws.mean() == pytest.approx(0.5, abs=0.005)


def test_config_rejects_bad_values():
    with pytest.raises(ValueError):
        SpinNetworkConfig(n_sites=0)
    with pytest.raises(ValueError):
        SpinNetworkConfig(n_sites=7)  # beyond the default dense limit
    SpinNetworkConfig(n_sites=7, dense_limit=7)  # explicit opt-in is fine
    with pytest.raises(ValueError):
        SpinNetworkConfig(t1=0.0)
    with pytest.raises(ValueError):
        SpinNetworkConfig(gamma=-0.1)
    with pytest.raises(ValueError):
        SpinNetworkConfig(n_sites=3, disorder=np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        SpinNetworkConfig(n_sites=2, disorder=np.array([-1.0, 0.0]))


def test_config_equality_and_hash_compare_disorder_by_value():
    a = SpinNetworkConfig(n_sites=3, disorder=np.array([0.0, 1.5, 0.2]))
    b = SpinNetworkConfig(n_sites=3).with_disorder([0.0, 1.5, 0.2])
    assert a == b and hash(a) == hash(b)
    assert isinstance(b.disorder, np.ndarray)
    assert a != a.with_disorder([0.0, 1.5, 0.3])
    assert SpinNetworkConfig(n_sites=3) == SpinNetworkConfig(n_sites=3, disorder=np.zeros(3))
    assert len({a, b, SpinNetworkConfig(n_sites=3)}) == 2
