"""Vectorisation conventions and the Lindblad generator."""

import re

import numpy as np
import pytest

from dtcsim import (
    devectorize,
    lindblad_rhs,
    liouvillian,
    validate_density_matrix,
    vectorize,
)
from dtcsim.operators import excitation_sectors
from dtcsim.superop import dephasing_rates


def _random_density(dim, seed):
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = raw @ raw.conj().T
    return rho / np.trace(rho)


def test_vectorize_basis_projector():
    assert np.allclose(vectorize(np.array([[1, 0], [0, 0]])), [1, 0, 0, 0])


def test_vectorize_maximally_mixed():
    assert np.allclose(vectorize(np.eye(2) / 2), [0.5, 0, 0, 0.5])


def test_devectorize_offdiagonal_placement():
    # component 1 = row 0, column 1 under row stacking
    out = devectorize(np.array([0.0, 1.0, 0.0, 0.0]))
    assert np.allclose(out, np.array([[0, 1], [0, 0]]))


def test_round_trip():
    rho = _random_density(8, 5)
    assert np.array_equal(devectorize(vectorize(rho)), rho)


def test_devectorize_rejects_non_square_length():
    with pytest.raises(ValueError):
        devectorize(np.zeros(5))


def test_inner_product_is_trace_pairing():
    rng = np.random.default_rng(17)
    for _ in range(5):
        A = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        B = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        assert np.vdot(vectorize(A), vectorize(B)) == pytest.approx(np.trace(A.conj().T @ B))


def test_hamiltonian_superop_identity_is_zero():
    assert np.abs(liouvillian(np.eye(4), 2, 0.0)).max() == 0.0


def test_hamiltonian_superop_reproduces_commutator():
    rng = np.random.default_rng(23)
    raw = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    H = raw + raw.conj().T  # complex Hermitian, exercises the transpose
    rho = _random_density(4, 24)
    via_superop = devectorize(liouvillian(H, 2, 0.0) @ vectorize(rho))
    assert np.abs(via_superop - (-1j) * (H @ rho - rho @ H)).max() < 1e-12


def test_hamiltonian_superop_spectrum_imaginary():
    ev = np.linalg.eigvals(liouvillian(np.diag([1.0, -1.0]), 1, 0.0))
    assert np.abs(ev.real).max() < 1e-14


def test_dephasing_superop_structure():
    D = np.diag(dephasing_rates(2, 0.3))
    assert np.abs(D - np.diag(np.diag(D))).max() == 0.0
    assert np.abs(np.diag(D).imag).max() == 0.0
    assert np.diag(D).real.max() <= 0.0


def test_dephasing_annihilates_populations():
    D = np.diag(dephasing_rates(3, 0.7))
    for k in (0, 5, 7):
        proj = np.zeros((8, 8)); proj[k, k] = 1.0
        assert np.abs(D @ vectorize(proj)).max() == 0.0


def test_dephasing_single_qubit_rate():
    D = np.diag(dephasing_rates(1, 0.25))
    coherence = np.array([0.0, 1.0, 0.0, 0.0])
    assert np.allclose(D @ coherence, -2 * 0.25 * coherence)


def test_dephasing_zero_gamma():
    assert np.abs(np.diag(dephasing_rates(2, 0.0))).max() == 0.0


def test_liouvillian_trace_preserving():
    rng = np.random.default_rng(31)
    raw = rng.normal(size=(8, 8))
    H = raw + raw.T
    L = liouvillian(H.astype(complex), 3, 0.12)
    left = vectorize(np.eye(8, dtype=complex))
    assert np.abs(left @ L).max() < 1e-12


def test_liouvillian_gamma_zero_is_commutator():
    H = np.diag([0.3, -0.3]).astype(complex)
    I = np.eye(2)
    assert np.abs(liouvillian(H, 1, 0.0) + 1j * (np.kron(H, I) - np.kron(I, H.T))).max() == 0.0


def test_liouvillian_single_qubit_dephasing_spectrum():
    L = liouvillian(np.zeros((2, 2), dtype=complex), 1, 0.01)
    ev = np.sort(np.linalg.eigvals(L).real)
    assert np.allclose(ev, [-0.02, -0.02, 0.0, 0.0], atol=1e-14)


def test_liouvillian_preserves_hermiticity():
    rng = np.random.default_rng(37)
    raw = rng.normal(size=(8, 8))
    H = (raw + raw.T).astype(complex)
    L = liouvillian(H, 3, 0.2)
    rho = _random_density(8, 41)
    drho = devectorize(L @ vectorize(rho))
    assert np.abs(drho - drho.conj().T).max() < 1e-12


def test_liouvillian_dimension_mismatch():
    with pytest.raises(ValueError):
        liouvillian(np.eye(4, dtype=complex), 3, 0.1)


def test_rhs_maximally_mixed_is_stationary():
    H = np.diag([1.0, 2.0, 3.0, 4.0]).astype(complex)
    out = lindblad_rhs(np.eye(4) / 4.0, H, 2, 0.5)
    assert np.abs(out).max() < 1e-15


def test_rhs_single_qubit_plus_state():
    plus = np.full((2, 2), 0.5, dtype=complex)
    out = lindblad_rhs(plus, np.zeros((2, 2), dtype=complex), 1, 0.4)
    expected = -2 * 0.4 * np.array([[0.0, 0.5], [0.5, 0.0]])
    assert np.allclose(out, expected, atol=1e-15)


def test_rhs_agrees_with_superoperator_route():
    rng = np.random.default_rng(43)
    raw = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    H = raw + raw.conj().T
    rho = _random_density(8, 47)
    L = liouvillian(H, 3, 0.33)
    assert np.abs(lindblad_rhs(rho, H, 3, 0.33)
                  - devectorize(L @ vectorize(rho))).max() < 1e-12


def test_validate_density_matrix():
    validate_density_matrix(np.eye(4) / 4.0)
    with pytest.raises(ValueError, match="trace"):
        validate_density_matrix(np.eye(4) / 2.0)
    bad = np.eye(2) / 2.0 + np.array([[0, 1e-6j], [0, 0]])
    with pytest.raises(ValueError, match="Hermiticity"):
        validate_density_matrix(bad)
    with pytest.raises(ValueError, match="eigenvalue"):
        validate_density_matrix(np.diag([1.5, -0.5]).astype(complex))


def test_validate_density_matrix_returns_margins():
    rho = np.diag([0.7, 0.3 + 1e-12]).astype(complex)
    rho[0, 1] = 1e-13j
    margins = validate_density_matrix(rho)
    assert margins.trace_error == pytest.approx(1e-12, rel=1e-3)
    assert margins.hermiticity_error == pytest.approx(1e-13, rel=1e-3)
    assert margins.min_eigenvalue == pytest.approx(0.3, abs=1e-11)


@pytest.mark.parametrize("entry, value", [((1, 1), np.nan), ((0, 1), np.nan), ((1, 0), np.inf)],
                         ids=["nan_diagonal", "nan_off_diagonal", "inf"])
def test_validate_density_matrix_refuses_non_finite_entries(entry, value):
    rho = np.eye(3, dtype=complex) / 3.0
    rho[entry] = value
    with pytest.raises(ValueError, match=re.escape(f"1 non-finite entries, the first at {entry}")):
        validate_density_matrix(rho)
    stack = np.array([np.eye(3) / 3.0, rho], dtype=complex)
    with pytest.raises(ValueError, match="state 1: 1 non-finite entries"):
        validate_density_matrix(stack)


def test_validate_density_matrix_stack_reports_first_invalid_state():
    good = np.eye(2, dtype=complex) / 2.0
    bad_trace, bad_positivity = good * 2.0, np.diag([1.5, -0.5]).astype(complex)
    non_finite = good.copy()
    non_finite[0, 1] = np.nan
    stack = np.array([good, good, bad_positivity, bad_trace, non_finite])
    with pytest.raises(ValueError, match="^state 2: minimum eigenvalue"):
        validate_density_matrix(stack)
    with pytest.raises(ValueError, match="^state 1: trace deviates"):
        validate_density_matrix(stack[[0, 3, 4]])
    margins = validate_density_matrix(stack[:2])
    assert margins == [validate_density_matrix(good)] * 2


def _on_sectors(rho, sectors):
    """rho placed on the basis states of ``sectors`` of six sites, zero elsewhere."""
    rows = np.concatenate([excitation_sectors(6)[k] for k in sectors])
    out = np.zeros((64, 64), dtype=complex)
    out[np.ix_(rows, rows)] = rho
    return out


def _support_stack():
    """Six-site states: full support, low rank, and two zero patterns (the
    sectors 3..6 and 0..3 that a run from 111+++ alternates between, 42 rows
    each), interleaved so that each pattern's states are not contiguous."""
    rng = np.random.default_rng(11)
    raw = rng.normal(size=(64, 3)) + 1j * rng.normal(size=(64, 3))
    low_rank = raw @ raw.conj().T
    return np.array([
        _on_sectors(_random_density(42, 1), (3, 4, 5, 6)),
        _random_density(64, 2),
        _on_sectors(_random_density(42, 3), (0, 1, 2, 3)),
        _on_sectors(_random_density(42, 4), (3, 4, 5, 6)),
        low_rank / np.trace(low_rank),
        _on_sectors(_random_density(42, 5), (0, 1, 2, 3)),
    ])


def test_min_eigenvalue_on_the_support_matches_the_full_solve():
    # a zero row and column of a Hermitian matrix is an eigenvector with
    # eigenvalue 0; the rest of the spectrum is that of the remaining rows
    stack = _support_stack()
    full = np.linalg.eigvalsh(stack).min(axis=1)
    margins = validate_density_matrix(stack)
    assert np.abs([m.min_eigenvalue for m in margins] - full).max() < 1e-14
    assert [margins[i].min_eigenvalue for i in (0, 2, 3, 5)] == [0.0] * 4  # rows dropped
    assert margins == [validate_density_matrix(rho) for rho in stack]


def test_first_invalid_state_on_the_support_is_unchanged():
    # a trace failure, then a state whose live rows carry an eigenvalue of
    # -1e-6: the first invalid state, its index and its message are those the
    # full eigen-solve gives
    stack = _support_stack()
    a, b = np.zeros(64, dtype=complex), np.zeros(64, dtype=complex)
    a[excitation_sectors(6)[4][0]] = b[excitation_sectors(6)[5][0]] = 1.0
    negative = (1 + 1e-6) * np.outer(a, a) - 1e-6 * np.outer(b, b)
    low = np.linalg.eigvalsh(negative).min()
    assert low == pytest.approx(-1e-6)
    with pytest.raises(ValueError, match=re.escape(
            f"state 6: minimum eigenvalue {low:.3e} below -1e-08")):
        validate_density_matrix(np.concatenate([stack, [negative, stack[1] * 2.0]]))
    with pytest.raises(ValueError, match="^state 3: trace deviates from 1 by 1.000e\\+00$"):
        validate_density_matrix(np.concatenate([stack[:3], [stack[1] * 2.0, negative]]))
    with pytest.raises(ValueError, match=re.escape(f"minimum eigenvalue {low:.3e} below")):
        validate_density_matrix(negative)
