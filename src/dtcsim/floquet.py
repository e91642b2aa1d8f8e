"""One- and two-period dynamical maps and the two-period effective Hamiltonian.

The drive alternates a purely unitary kick (dephasing is negligible during a
short pulse) with an interaction segment evolved under the full Lindblad
generator, so one period of the vectorised dynamics reads

    Phi_T = exp(L2 * t2) @ (U1 kron conj(U1)),

kick first, composition right to left.  The interaction-segment generator L2
commutes with excitation number on both tensor factors and is therefore block
diagonal over sector pairs; its exponential is computed per block, which is
exact and orders of magnitude cheaper than exponentiating the full 4^N
matrix.  The propagator preserves Hermiticity, so block (kr, kl) is block
(kl, kr) conjugated with its index pairs swapped, and only the blocks with
kl <= kr are exponentiated.  :class:`BlockPropagator` keeps one period in
that form and applies it to a density matrix directly; the dense Phi_T of
:func:`floquet_map` is assembled from the same blocks and serves
cross-checks and spectra.

:func:`interaction_propagator`, :func:`floquet_map` and :func:`floquet_map_2T`
form a dense 4^N x 4^N matrix and refuse N > DENSE_LIMIT before building any
block; :func:`block_propagator` and :func:`floquet_2T_sector_blocks` never do.
:func:`floquet_map_2T` is Phi_T squared, never assembled from those blocks.

The generator of a diagonal block (k, k) maps the c x c sub-matrix of sector
k to itself and preserves Hermiticity, so in the Hermitian basis of c x c
matrices (:func:`dtcsim.superop.to_hermitian_basis`) it is a real matrix.
Those blocks, the largest ones and the populations among them, are
exponentiated in real arithmetic; the basis change is a similarity, so the
result is the same exponential up to rounding.  The off-diagonal blocks stay
complex: their real form would have twice the dimension.

Every exponential in the package goes through :func:`matrix_exp`, a numpy
implementation of the scaling-and-squaring algorithm of Al-Mohy & Higham
(SIAM J. Matrix Anal. Appl. 31, 970 (2009)); the blocks are at most
1225 x 1225 (seven sites), small enough for exact 1-norms of matrix powers.
Only :func:`principal_log_hamiltonian`, which needs ``scipy.linalg.logm``,
imports scipy here, inside the function, so ``evolve``, ``spectrum`` and
``gap-sweep`` load no scipy module.

For a perfect pi pulse the two kicks of a double period cancel and
conjugate the disorder sign, giving the fully block-diagonal form

    Phi_2T = exp((A + D) t2) @ (exp((A + D) t2) with disorder negated),

which is what :func:`floquet_2T_sector_blocks` evaluates blockwise.  The
global spin flip maps the negated-disorder segment onto the original one with
sectors k -> N - k, so the spectrum of block (kl, kr) of Phi_2T equals that of
(N - kl, N - kr) and is the complex conjugate of that of (kr, kl)
(Buca & Prosen, NJP 14, 073007 (2012); Albert & Jiang, PRA 89, 022118 (2014)).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from math import ceil, factorial, log2

import numpy as np

from .operators import (
    SpinNetworkConfig,
    excitation_sectors,
    hamiltonian_interaction,
    hamiltonian_kick,
    require_dense,
)
from .superop import dephasing_rates, from_hermitian_basis, hermitian_real_form


class BranchAmbiguityWarning(UserWarning):
    """A matrix logarithm was taken with an eigenphase close to +-pi."""


@dataclass(frozen=True)
class DynamicalMap:
    """Stroboscopic propagator of the vectorised density matrix."""

    matrix: np.ndarray
    period_multiple: int
    horizon: float  # duration the map propagates over (T or 2T)

    def apply(self, rho: np.ndarray) -> np.ndarray:
        """The density matrix after one application of the map."""
        return (self.matrix @ rho.reshape(-1)).reshape(rho.shape)


@dataclass(frozen=True)
class BlockPropagator:
    """One drive period as the kick unitary and the sector-pair blocks of
    exp(L2 * t2), applied without forming the dense 4^N map.

    ``blocks[(kl, kr)]`` acts on the row-stacked sub-matrix
    ``rho[np.ix_(sectors[kl], sectors[kr])]``.
    """

    kick: np.ndarray
    blocks: dict
    sectors: list

    def apply(self, rho: np.ndarray) -> np.ndarray:
        """U1 rho U1^dagger, then every sector-pair block on its sub-matrix.

        The kicked state is reordered so that each sector is a contiguous
        range of indices; every block then reads and writes a slice.
        """
        order = np.concatenate(self.sectors)
        edges = np.cumsum([0] + [len(s) for s in self.sectors])
        kicked = (self.kick @ rho @ self.kick.conj().T)[np.ix_(order, order)]
        stepped = np.zeros_like(kicked)
        for (kl, kr), block in self.blocks.items():
            rows, cols = slice(edges[kl], edges[kl + 1]), slice(edges[kr], edges[kr + 1])
            sub = kicked[rows, cols]
            stepped[rows, cols] = (block @ sub.reshape(-1)).reshape(sub.shape)
        out = np.empty_like(stepped)
        out[np.ix_(order, order)] = stepped
        return out


#: theta_m of Al-Mohy & Higham (2009): the largest bound eta on the scaled
#: 1-norms ||A^p||^(1/p) for which the [m/m] Pade approximant of exp has
#: backward error at most 2^-53.
_PADE_THETA = {3: 1.495585217958292e-2, 5: 2.539398330063230e-1,
               7: 9.504178996162932e-1, 9: 2.097847961257068e0, 13: 4.25}


def _finite(norm) -> float:
    """``norm`` as a float; OverflowError if the matrix power it measures overflowed."""
    if not np.isfinite(norm):
        raise OverflowError("matrix exponential overflowed: a power of the matrix is not finite")
    return float(norm)


def _norm1(X: np.ndarray) -> float:
    """Largest absolute column sum, the 1-norm."""
    return _finite(np.abs(X).sum(axis=0).max())


def _ell(A: np.ndarray, m: int) -> int:
    """Extra squarings l(A, m) of Al-Mohy & Higham (2009).

    They bound the backward error of the degree-m approximant by the leading
    term |c_2m+1| || |A|^(2m+1) ||_1 / ||A||_1 of its series, whose column
    sums are taken by 2m + 1 products of a vector with |A|.
    """
    abs_a = np.abs(A)
    sums = np.ones(A.shape[0])
    for _ in range(2 * m + 1):
        sums = sums @ abs_a
    c = factorial(m) ** 2 / (factorial(2 * m) * factorial(2 * m + 1))
    alpha = c * _finite(sums.max()) / _norm1(A)
    return max(ceil((log2(alpha) + 53) / (2 * m)), 0) if alpha else 0


def _pade(A: np.ndarray, powers: list, m: int) -> np.ndarray:
    """r_m(A) = (V - U)^-1 (V + U), the [m/m] Pade approximant of exp(A),
    from the even powers [A^2, A^4, ...] (Higham, SIAM J. Matrix Anal. Appl.
    26, 1179 (2005))."""
    b = [float(factorial(2 * m - j) // (factorial(j) * factorial(m - j))) for j in range(m + 1)]
    if m == 13:
        A2, A4, A6 = powers
        odd = A6 @ (b[13] * A6 + b[11] * A4 + b[9] * A2) + b[7] * A6 + b[5] * A4 + b[3] * A2
        V = A6 @ (b[12] * A6 + b[10] * A4 + b[8] * A2) + b[6] * A6 + b[4] * A4 + b[2] * A2
    else:
        odd = sum(b[2 * j + 1] * P for j, P in enumerate(powers, 1))
        V = sum(b[2 * j] * P for j, P in enumerate(powers, 1))
    diagonal = np.diag_indices_from(A)
    odd[diagonal] += b[1]
    V[diagonal] += b[0]
    U = A @ odd
    return np.linalg.solve(V - U, V + U)


def _expm(A: np.ndarray) -> np.ndarray:
    """exp(A) by scaling and squaring, Al-Mohy & Higham (2009), Algorithm 5.1.

    The 1-norms of A^4 and A^6 are exact; ||A^8||^(1/8) and ||A^10||^(1/10)
    are bounded through them instead of estimated, which can only choose a
    larger s.  A diagonal A gets exp of its diagonal.
    """
    if np.count_nonzero(A) == np.count_nonzero(np.diagonal(A)):
        return np.diag(np.exp(np.diagonal(A)))
    A2 = A @ A
    A4 = A2 @ A2
    A6 = A4 @ A2
    d4, d6 = _norm1(A4) ** (1 / 4), _norm1(A6) ** (1 / 6)
    eta = max(d4, d6)
    for m in (3, 5, 7, 9):
        if eta <= _PADE_THETA[m] and _ell(A, m) == 0:
            powers = [A2, A4, A6] + ([A4 @ A4] if m == 9 else [])
            return _pade(A, powers[:(m - 1) // 2], m)
    # eta_5 = min(eta_3, max(d8, d10)), with d8 <= d4 and d10 <= (||A^4|| ||A^6||)^(1/10)
    eta = min(eta, max(d4, d4 ** 0.4 * d6 ** 0.6))
    s = max(ceil(log2(eta / _PADE_THETA[13])), 0) if eta else 0
    s += _ell(A * 2.0**-s, 13)
    step = 2.0**-s
    # A^2k scaled by two factors 2^-ks, so that no factor underflows
    X = _pade(A * step, [P * step**k * step**k for k, P in ((1, A2), (2, A4), (3, A6))], 13)
    for _ in range(s):
        X = X @ X
    return X


def matrix_exp(A: np.ndarray) -> np.ndarray:
    """Matrix exponential of a finite square matrix, real or complex.

    Scaling and squaring with Pade approximants of degree 3 to 13 (Al-Mohy &
    Higham, SIAM J. Matrix Anal. Appl. 31, 970 (2009)), in numpy alone.
    Raises ValueError for a non-finite entry and OverflowError when a power
    of the matrix or the exponential itself is not finite.
    """
    A = np.asarray(A)
    A = A.astype(np.result_type(A.dtype, np.float64), copy=False)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"matrix_exp needs a square matrix, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise ValueError("matrix contains non-finite entries")
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is raised below
        out = _expm(A)
    if not np.all(np.isfinite(out)):
        raise OverflowError("matrix exponential overflowed")
    return out


def kick_unitary(config: SpinNetworkConfig) -> np.ndarray:
    """U1 = exp(-i H1 t1); a global pi rotation about x when epsilon = 0."""
    return matrix_exp(-1j * hamiltonian_kick(config) * config.t1)


def _adjoint_block(block: np.ndarray, a: int, c: int) -> np.ndarray:
    """Block (kr, kl) of a Hermiticity-preserving map from its block (kl, kr).

    Phi(rho^dagger) = Phi(rho)^dagger sends the (a x c) sub-matrix X of sector
    pair (kl, kr) to the (c x a) sub-matrix X^dagger of (kr, kl), so the
    partner block is the conjugate of the block with both index pairs swapped.
    """
    return block.reshape(a, c, a, c).transpose(1, 0, 3, 2).conj().reshape(a * c, a * c)


def _segment_blocks(H: np.ndarray, config: SpinNetworkConfig, duration: float, diagonal=False):
    """exp(L * duration) per sector-pair block, L = -i[H, .] + dephasing.

    Valid for any Hamiltonian commuting with excitation number; the XY
    interaction Hamiltonian does for every disorder vector.  Only the blocks
    with kl <= kr are exponentiated; each (kr, kl) block follows exactly from
    its partner by :func:`_adjoint_block`, because the segment propagator
    preserves Hermiticity.  Each diagonal block (k, k) is exponentiated as the
    real matrix its generator is in the Hermitian basis and mapped back.
    With ``diagonal`` only the N + 1 diagonal blocks are built.
    """
    n = config.n_sites
    sectors = excitation_sectors(n)
    rates = dephasing_rates(n, config.gamma).reshape(config.dim, config.dim)
    blocks = {}
    for kl in range(n + 1):
        il = sectors[kl]
        Hl = H[np.ix_(il, il)]
        for kr in (kl,) if diagonal else range(kl, n + 1):
            ir = sectors[kr]
            Hr = H[np.ix_(ir, ir)]
            gen = -1j * (
                np.kron(Hl, np.eye(len(ir))) - np.kron(np.eye(len(il)), Hr.T)
            )
            gen[np.diag_indices_from(gen)] += rates[np.ix_(il, ir)].reshape(-1)
            gen *= duration
            if kl == kr:
                real = hermitian_real_form(gen, f"segment generator block {(kl, kr)}")
                blocks[(kl, kr)] = from_hermitian_basis(matrix_exp(real))
            else:
                blocks[(kl, kr)] = matrix_exp(gen)
    # derived after the exponentials, so the largest expm runs with the
    # fewest blocks held
    for kl, kr in [key for key in blocks if key[0] != key[1]]:
        blocks[(kr, kl)] = _adjoint_block(blocks[(kl, kr)], len(sectors[kl]), len(sectors[kr]))
    return {key: blocks[key] for key in sorted(blocks)}, sectors


def _assemble_blocks(blocks, sectors, dim: int) -> np.ndarray:
    """Scatter sector-pair blocks into the dense 4^N superoperator."""
    out = np.zeros((dim * dim, dim * dim), dtype=complex)
    for (kl, kr), block in blocks.items():
        rows = (sectors[kl][:, None] * dim + sectors[kr][None, :]).reshape(-1)
        out[np.ix_(rows, rows)] = block
    return out


def block_propagator(config: SpinNetworkConfig) -> BlockPropagator:
    """One-period propagator: the kick unitary and the interaction blocks."""
    blocks, sectors = _segment_blocks(hamiltonian_interaction(config), config, config.t2)
    return BlockPropagator(kick=kick_unitary(config), blocks=blocks, sectors=sectors)


def interaction_propagator(config: SpinNetworkConfig) -> np.ndarray:
    """Dense exp(L2 * t2) for the interaction segment, built blockwise."""
    require_dense(config.n_sites)
    prop = block_propagator(config)
    return _assemble_blocks(prop.blocks, prop.sectors, config.dim)


def floquet_map(config: SpinNetworkConfig) -> DynamicalMap:
    """One-period dynamical map Phi_T (kick, then dissipative interaction).

    Right-multiplying by U1 kron conj(U1) maps each row of exp(L2 t2), read
    as a dim x dim matrix R, to U1^T R conj(U1); the batched product avoids
    forming the 4^N x 4^N Kronecker superoperator and multiplying by it.
    """
    require_dense(config.n_sites)
    prop = block_propagator(config)
    dim = config.dim
    phi = _assemble_blocks(prop.blocks, prop.sectors, dim).reshape(dim * dim, dim, dim)
    np.matmul(prop.kick.T @ phi, prop.kick.conj(), out=phi)
    return DynamicalMap(matrix=phi.reshape(dim * dim, dim * dim), period_multiple=1,
                        horizon=config.period)


def floquet_map_2T(config: SpinNetworkConfig) -> DynamicalMap:
    """Two-period map Phi_T^2, the dense route that the sector blocks of
    :func:`floquet_2T_sector_blocks` are checked against; it commutes with the
    excitation superoperators when the kick is a perfect pi pulse."""
    phi = floquet_map(config).matrix
    return DynamicalMap(matrix=phi @ phi, period_multiple=2, horizon=2.0 * config.period)


def floquet_2T_sector_blocks(config: SpinNetworkConfig, diagonal: bool = False):
    """Sector-pair blocks of Phi_2T for a perfect pi pulse.

    The pi pulses of a double period cancel up to a global phase and flip the
    sign of the on-site disorder in between, so Phi_2T is the product of two
    block-diagonal segment propagators, one with the disorder negated.
    Negating the disorder is the global spin flip sigma^x on every site: it
    leaves the XY coupling and the dephasing unchanged, sends sector k to
    N - k and reverses the sorted basis order inside each sector.  The
    negated-disorder block (kl, kr) is therefore the (N - kl, N - kr) block
    of the same segment propagator with rows and columns reversed, and only
    one set of segment blocks is exponentiated.
    Returns a dict mapping (k_left, k_right) to the corresponding block; the
    union of block spectra is the full Phi_2T spectrum.  The largest block
    for six sites is 400 x 400, so this is the fast path for disorder sweeps.
    With ``diagonal`` only the N + 1 blocks (k, k) are built.
    """
    if not config.perfect_pulse:
        raise ValueError(
            "sector-block construction requires epsilon = 0 and 2*g*t1 = pi"
        )
    n = config.n_sites
    plus, _ = _segment_blocks(hamiltonian_interaction(config), config, config.t2, diagonal)
    return {(kl, kr): block @ plus[(n - kl, n - kr)][::-1, ::-1]
            for (kl, kr), block in plus.items()}


def principal_log_hamiltonian(U: np.ndarray, horizon: float):
    """Hermitised (i / horizon) log U on the principal branch, and whether an
    eigenphase of U lies within 1e-6 of the +-pi cut, where the branch is ambiguous."""
    import scipy.linalg  # here, so evolve, spectrum and gap-sweep never load scipy

    phases = np.angle(np.linalg.eigvals(U))
    H = 1j * scipy.linalg.logm(U) / horizon
    return (H + H.conj().T) / 2.0, bool(np.any(np.abs(np.abs(phases) - np.pi) < 1e-6))


def effective_hamiltonian_2T(config: SpinNetworkConfig) -> np.ndarray:
    """Closed-system Hamiltonian generating the double-period unitary.

    Defined through U(2T) = exp(-2i H_eff T).  Without disorder and for a
    perfect pi pulse this has the closed form of half the interaction
    Hamiltonian (the kick segment contributes nothing and the interaction
    acts for half of each period); otherwise the principal matrix logarithm
    of U(2T) is taken and a warning is emitted if any eigenphase sits within
    1e-6 of the +-pi branch cut.
    """
    if config.perfect_pulse and not np.any(config.disorder):
        return 0.5 * hamiltonian_interaction(config)
    U1 = kick_unitary(config)
    U2 = matrix_exp(-1j * hamiltonian_interaction(config) * config.t2)
    H, on_cut = principal_log_hamiltonian(U2 @ U1 @ U2 @ U1, 2.0 * config.period)
    if on_cut:
        warnings.warn("eigenphase of U(2T) within 1e-6 of +-pi; principal-branch effective "
                      "Hamiltonian is ambiguous there", BranchAmbiguityWarning, stacklevel=2)
    return H
