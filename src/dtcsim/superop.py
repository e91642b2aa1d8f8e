"""Vectorisation of density matrices and the Lindblad superoperator.

Row-stacking convention: |rho>> has component l*dim + m equal to rho[l, m],
so vec(A rho B) = (A kron B^T) vec(rho).  The Hamiltonian superoperator is
therefore -i (H kron I - I kron H^T); for the real-symmetric Hamiltonians
built by :mod:`dtcsim.operators` the transpose is immaterial, but it matters
for any future Hamiltonian with complex matrix elements.

A superoperator that maps the c x c matrices of one sector to themselves and
preserves Hermiticity, as every diagonal sector block (k, k) of the segment
propagator and of Phi_2T does, is a real matrix in the Hermitian basis of
c x c matrices: it maps the real span of that basis, the Hermitian matrices,
to itself.  :func:`to_hermitian_basis` and :func:`from_hermitian_basis` are
the unitary change to that basis and back.  The change is a similarity, so
the real form has the same spectrum and exp(T G T^dagger) = T exp(G)
T^dagger; exponentiating or diagonalising the real form is exact, only
cheaper.

Only :func:`liouvillian` forms a dense 4^N x 4^N matrix, and it refuses
N > DENSE_LIMIT.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .operators import require_dense, z_sign_table

#: Largest imaginary part, relative to max(1, max |entry|), that the
#: Hermitian-basis form of a Hermiticity-preserving block may carry.
HERMITIAN_REAL_TOL = 1e-12


def vectorize(rho: np.ndarray) -> np.ndarray:
    """Row-stack a square matrix into a length dim^2 vector."""
    rho = np.asarray(rho)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError("expected a square matrix")
    return rho.reshape(-1)


def devectorize(vec: np.ndarray) -> np.ndarray:
    """Exact inverse of :func:`vectorize`."""
    vec = np.asarray(vec)
    dim = int(round(np.sqrt(vec.size)))
    if dim * dim != vec.size:
        raise ValueError(f"vector length {vec.size} is not a perfect square")
    return vec.reshape(dim, dim)


def _hermitian_basis(c: int):
    """T = diag(d1) + diag(d2) S on row-stacked c x c matrices, S the transpose.

    Row a*c + b of T picks the coefficient of one Hermitian basis element:
    (|a><b| + |b><a|)/sqrt2 for a < b, i(|b><a| - |a><b|)/sqrt2 for a > b and
    |a><a| on the diagonal.  The rows are orthonormal, so T is unitary.
    """
    a, b = np.divmod(np.arange(c * c), c)
    s = 1.0 / np.sqrt(2.0)
    d1 = np.where(a < b, s, np.where(a > b, 1j * s, 1.0))
    d2 = np.where(a < b, s, np.where(a > b, -1j * s, 0.0))
    return d1, d2, b * c + a


def _sandwich(M: np.ndarray, u1: np.ndarray, u2: np.ndarray, swap: np.ndarray) -> np.ndarray:
    """U M U^dagger for U = diag(u1) + diag(u2) S, S the index permutation ``swap``."""
    UM = u2[:, None] * M[swap]
    UM += u1[:, None] * M
    out = UM[:, swap]
    out *= u2.conj()
    UM *= u1.conj()
    out += UM
    return out


def to_hermitian_basis(M: np.ndarray) -> np.ndarray:
    """T M T^dagger: a superoperator on c x c matrices in the Hermitian basis.

    Every row of T has at most two nonzeros, so this is index arithmetic on
    M, O(c^4), with no dense T.  The result is real exactly when M preserves
    Hermiticity.
    """
    d1, d2, swap = _hermitian_basis(int(round(np.sqrt(len(M)))))
    return _sandwich(M, d1, d2, swap)


def from_hermitian_basis(R: np.ndarray) -> np.ndarray:
    """T^dagger R T, the exact inverse of :func:`to_hermitian_basis`.

    T^dagger = diag(d1*) + S diag(d2*) = diag(d1*) + diag(d2*[swap]) S.
    """
    d1, d2, swap = _hermitian_basis(int(round(np.sqrt(len(R)))))
    return _sandwich(R, d1.conj(), d2.conj()[swap], swap)


def hermitian_real_form(M: np.ndarray, name: str) -> np.ndarray:
    """The real matrix T M T^dagger of a Hermiticity-preserving M.

    Raises ValueError naming ``name`` when an imaginary part exceeds
    HERMITIAN_REAL_TOL relative to max(1, max |entry|), i.e. when M does not
    preserve Hermiticity to working precision.
    """
    R = to_hermitian_basis(M)
    residue = float(np.abs(R.imag).max())
    scale = max(1.0, float(np.abs(R).max()))
    if residue > HERMITIAN_REAL_TOL * scale:
        raise ValueError(
            f"{name} does not preserve Hermiticity: its Hermitian-basis form "
            f"has imaginary parts up to {residue:.3e}"
        )
    return R.real.copy()


def dephasing_rates(n_sites: int, gamma: float) -> np.ndarray:
    """Diagonal of the dephasing superoperator, length 4^N.

    Component (i, j) equals gamma * sum_l (s_l^i s_l^j - 1) with s the
    sigma^z signs, i.e. -2 gamma times the number of sites where the two
    basis states differ.  Real and <= 0 everywhere; zero exactly on
    populations (i = j).
    """
    s = z_sign_table(n_sites)
    mat = s.T @ s - n_sites  # (i, j) -> sum_l s_l^i s_l^j - N
    return gamma * mat.reshape(-1)


def liouvillian(H: np.ndarray, n_sites: int, gamma: float) -> np.ndarray:
    """Full Lindblad generator: -i (H x I - I x H^T), the commutator under
    row stacking, plus site dephasing."""
    H = np.asarray(H, dtype=complex)
    if H.shape != (2**n_sites, 2**n_sites):
        raise ValueError(
            f"H has shape {H.shape}, expected ({2**n_sites}, {2**n_sites}) for {n_sites} sites"
        )
    require_dense(n_sites)
    I = np.eye(2**n_sites, dtype=complex)
    L = -1j * (np.kron(H, I) - np.kron(I, H.T))
    L[np.diag_indices_from(L)] += dephasing_rates(n_sites, gamma)
    return L


def lindblad_rhs(rho: np.ndarray, H: np.ndarray, n_sites: int, gamma: float) -> np.ndarray:
    """Matrix-form right-hand side d(rho)/dt of the master equation.

    Used by the fixed-step ODE oracle; agrees with devectorize(L @ vec(rho))
    to machine precision.  The dephasing term is applied elementwise through
    the precomputable sign structure rather than via jump operators.
    """
    rho = np.asarray(rho, dtype=complex)
    out = -1j * (H @ rho - rho @ H)
    if gamma != 0.0:
        out += devectorize(dephasing_rates(n_sites, gamma)) * rho
    return out


@dataclass(frozen=True)
class DensityMatrixMargins:
    """Invariant errors of a density matrix: |Tr rho - 1|, max |rho - rho^dagger|
    and the lowest eigenvalue of its Hermitian part."""

    trace_error: float
    hermiticity_error: float
    min_eigenvalue: float

    def worst(self, other: DensityMatrixMargins) -> DensityMatrixMargins:
        """The larger of each error and the lower minimum eigenvalue."""
        return DensityMatrixMargins(
            trace_error=max(self.trace_error, other.trace_error),
            hermiticity_error=max(self.hermiticity_error, other.hermiticity_error),
            min_eigenvalue=min(self.min_eigenvalue, other.min_eigenvalue),
        )


def _leading(passed: np.ndarray) -> int:
    """Number of leading True entries."""
    return len(passed) if passed.all() else int(np.argmin(passed))


def validate_density_matrix(
    rho: np.ndarray,
    trace_tol: float = 1e-10,
    herm_tol: float = 1e-10,
    positivity_tol: float = 1e-8,
) -> DensityMatrixMargins | list[DensityMatrixMargins]:
    """Raise ValueError if rho is not a valid density matrix within tolerance;
    otherwise return the errors that were checked.

    The checks run in order: finite entries, trace, Hermiticity, then the
    lowest eigenvalue of the Hermitian part, so a non-finite state never
    reaches the eigen-solve.  A stack of shape (m, d, d) is checked as its
    states would be one at a time: the first invalid state raises, with its
    index in the message, and neither it nor a later state reaches the
    eigen-solve; otherwise one margins object per state is returned.
    """
    rho = np.asarray(rho)
    states = rho if rho.ndim == 3 else rho[np.newaxis]
    finite = np.isfinite(states).all(axis=(1, 2))
    ok = states[:_leading(finite)]
    tr_err = np.abs(np.trace(ok, axis1=1, axis2=2) - 1.0)
    herm_err = np.abs(ok - ok.conj().transpose(0, 2, 1)).max(axis=(1, 2), initial=0.0)
    ok = ok[:_leading((tr_err <= trace_tol) & (herm_err <= herm_tol))]
    min_eig = np.linalg.eigvalsh((ok + ok.conj().transpose(0, 2, 1)) / 2.0).min(
        axis=1, initial=np.inf)
    i = _leading(min_eig >= -positivity_tol)  # the first invalid state, if any
    if i < len(states):
        if not finite[i]:
            where = np.argwhere(~np.isfinite(states[i]))
            reason = (f"{len(where)} non-finite entries, the first at "
                      f"{tuple(int(j) for j in where[0])}")
        elif tr_err[i] > trace_tol:
            reason = f"trace deviates from 1 by {tr_err[i]:.3e}"
        elif herm_err[i] > herm_tol:
            reason = f"Hermiticity violated by {herm_err[i]:.3e}"
        else:
            reason = f"minimum eigenvalue {min_eig[i]:.3e} below -{positivity_tol:.0e}"
        raise ValueError(reason if rho.ndim == 2 else f"state {i}: {reason}")
    margins = [DensityMatrixMargins(float(t), float(h), float(e))
               for t, h, e in zip(tr_err, herm_err, min_eig)]
    return margins[0] if rho.ndim == 2 else margins
