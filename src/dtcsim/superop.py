"""Vectorisation of density matrices and the Lindblad superoperator.

Row-stacking convention: |rho>> has component l*dim + m equal to rho[l, m],
so vec(A rho B) = (A kron B^T) vec(rho).  The Hamiltonian superoperator is
therefore -i (H kron I - I kron H^T); for the real-symmetric Hamiltonians
built by :mod:`dtcsim.operators` the transpose is immaterial, but it matters
for any future Hamiltonian with complex matrix elements.

The sector blocks use two exact reductions: the Hermitian basis of a
diagonal block (:func:`hermitian_basis`, :func:`hermitian_generator`) and,
at palindromic disorder (:func:`reflection_symmetric`), the chain
reflection, whose parity bases, and the split and join of a block on them,
are derived once in :mod:`dtcsim.floquet`
(:func:`dtcsim.floquet.parity_halves`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

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


def hermitian_basis(c: int):
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


def from_hermitian_basis(R: np.ndarray) -> np.ndarray:
    """T^dagger R T: a superoperator on c x c matrices, given in the Hermitian
    basis, in the row-stacked basis of matrix elements.

    T^dagger = diag(d1*) + S diag(d2*) = diag(d1*) + diag(d2*[swap]) S, so
    this is index arithmetic on R, O(c^4), with no dense T.
    """
    d1, d2, swap = hermitian_basis(int(round(np.sqrt(len(R)))))
    return _sandwich(R, d1.conj(), d2.conj()[swap], swap)


def hermitian_generator(H: np.ndarray, rates: np.ndarray) -> np.ndarray:
    """The generator X -> -i[H, X] + rates * X on c x c matrices, for a real
    symmetric H and symmetric ``rates``, as the real matrix it is in the
    Hermitian basis.

    A Hermiticity-preserving map of the c x c matrices to themselves, as
    every diagonal sector block (k, k) of the segment propagator and of
    Phi_2T is, maps the Hermitian matrices, the real span of the basis
    (:func:`hermitian_basis`), to themselves, so it is real there.  The
    basis change is unitary, so exponentiating or diagonalising the real
    form is exact, only cheaper.  An off-diagonal block maps between two
    sectors; its real form would have twice its dimension.

    Write a Hermitian X = S + iA with S = Re X symmetric and A = Im X
    antisymmetric.  Then dS/dt = [H, A] + rates * S and dA/dt = -[H, S] +
    rates * A, so the real matrix M = S + A, whose transpose is S - A, obeys
    dM/dt = M^T H - H M^T + rates * M.  Row-stacked, the commutator part is
    G[(a, b), (x, y)] = delta_ay H_xb - delta_bx H_ay.  The Hermitian-basis
    coordinates are M rotated pairwise, r_ab = (M_ab + M_ba)/sqrt2 and
    r_ba = (M_ab - M_ba)/sqrt2 for a < b, r_aa = M_aa: r = Q m with
    Q = diag(q1) + diag(q2) S orthogonal and symmetric, S the transpose, read
    off T (:func:`hermitian_basis`) as q1 = Re d1 - Im d1, q2 = Re d2 - Im d2.
    So the generator is Q G Q, plus the rates on the diagonal, which Q leaves
    unchanged, and Q G Q is nonzero on four planes of c^3 entries:

        alpha (delta_ay H_xb - delta_bx H_ay) + beta (delta_ax H_yb - delta_by H_ax)

    with alpha = q1[ab] q1[xy] - q2[ab] q2[xy] and
    beta = q1[ab] q2[xy] - q2[ab] q1[xy].  Each plane is written by index
    arithmetic, with no c^4 temporary.
    """
    c = len(H)
    d1, d2, _ = hermitian_basis(c)
    q1, q2 = d1.real - d1.imag, d2.real - d2.imag
    i, j, k = (index.reshape(-1) for index in np.indices((c, c, c)))
    row = i * c + j
    R = np.zeros((c * c, c * c))
    # each plane: (a, b) = (i, j), the column its delta leaves, the H entry,
    # the sign, and (u, v) with weight q1[ab] u[xy] - q2[ab] v[xy]
    for col, h, sign, (u, v) in ((k * c + i, H[k, j], 1.0, (q1, q2)),
                                 (j * c + k, H[i, k], -1.0, (q1, q2)),
                                 (i * c + k, H[k, j], 1.0, (q2, q1)),
                                 (k * c + j, H[i, k], -1.0, (q2, q1))):
        R[row, col] += sign * (q1[row] * u[col] - q2[row] * v[col]) * h
    R[np.diag_indices_from(R)] += rates.reshape(-1)
    return R


def reflection_symmetric(disorder: np.ndarray) -> bool:
    """Whether the chain reflection l -> N - 1 - l is a weak symmetry of the
    interaction segment: the coupling depends on |l - m| alone and the
    dephasing is uniform, so exactly when the disorder is a palindrome, zero
    included (Buca & Prosen, NJP 14, 073007 (2012)).  The negated disorder is
    then one too, so the reflection (:func:`dtcsim.floquet.pair_reflection`)
    commutes with every sector-pair block G of the segment generator, its
    exponential and Phi_2T, and exp(G) and the eigenvalues of G come from
    its two parity halves (:func:`dtcsim.floquet.parity_halves`) of about
    half the dimension:
    exp(G) = V+ exp(V+^T G V+) V+^T + V- exp(V-^T G V-) V-^T.
    """
    return bool(np.array_equal(disorder, disorder[::-1]))


@lru_cache(maxsize=8)
def dephasing_rates(n_sites: int, gamma: float) -> np.ndarray:
    """Diagonal of the dephasing superoperator, length 4^N, read-only.

    Component (i, j) equals gamma * sum_l (s_l^i s_l^j - 1) with s the
    sigma^z signs, i.e. -2 gamma times the number of sites where the two
    basis states differ.  Real and <= 0 everywhere; zero exactly on
    populations (i = j).  Built once per (N, gamma): the ODE oracle reads it
    four times per RK4 step.
    """
    s = z_sign_table(n_sites)
    mat = s.T @ s - n_sites  # (i, j) -> sum_l s_l^i s_l^j - N
    rates = gamma * mat.reshape(-1)
    rates.flags.writeable = False
    return rates


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


def _min_eigenvalues(herm: np.ndarray) -> np.ndarray:
    """The lowest eigenvalue of each Hermitian matrix of the stack ``herm``.

    Row and column i of a Hermitian matrix being zero makes e_i an
    eigenvector with eigenvalue 0, and the other eigenvalues those of the
    principal sub-matrix of the remaining rows.  So each matrix is solved on
    the rows that are not identically zero, with 0 joined to its spectrum
    when a row is dropped, and the matrices sharing a zero pattern are
    solved as one stack.
    """
    groups = {}  # zero pattern -> (its live rows, the matrices that have it)
    for i, rows in enumerate(herm.any(axis=2)):
        groups.setdefault(rows.tobytes(), (rows, []))[1].append(i)
    low = np.empty(len(herm))
    for rows, members in groups.values():
        sub = herm[np.ix_(members, rows, rows)]
        low[members] = np.linalg.eigvalsh(sub).min(axis=1, initial=np.inf if rows.all() else 0.0)
    return low


def validate_density_matrix(
    rho: np.ndarray,
    trace_tol: float = 1e-10,
    herm_tol: float = 1e-10,
    positivity_tol: float = 1e-8,
) -> DensityMatrixMargins | list[DensityMatrixMargins]:
    """Raise ValueError if rho is not a valid density matrix within tolerance;
    otherwise return the errors that were checked.

    The checks run in order: finite entries, trace, Hermiticity, then the
    lowest eigenvalue of the Hermitian part, taken on the rows that are not
    identically zero (:func:`_min_eigenvalues`), so a non-finite state never
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
    min_eig = _min_eigenvalues((ok + ok.conj().transpose(0, 2, 1)) / 2.0)
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
