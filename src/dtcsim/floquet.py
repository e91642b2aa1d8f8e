"""One- and two-period dynamical maps, built from the sector blocks of one period.

The drive alternates a purely unitary kick (dephasing is negligible during a
short pulse) with an interaction segment evolved under the full Lindblad
generator, so one period of the vectorised dynamics reads

    Phi_T = exp(L2 * t2) @ (U1 kron conj(U1)),

kick first, composition right to left.  The interaction-segment generator L2
commutes with excitation number on both tensor factors and is therefore block
diagonal over sector pairs; its exponential is computed per block, which is
exact and orders of magnitude cheaper than exponentiating the full 4^N
matrix.  The propagator preserves Hermiticity, so block (kr, kl) is block
(kl, kr) conjugated with its index pairs swapped (:func:`_adjoint_block`):
only the blocks with kl <= kr are built and held, and each consumer derives
the partners it needs.  Without disorder the global spin flip commutes with
the segment as well, so block (kl, kr) is the partner of block
(N - kr, N - kl) with rows and columns reversed, and only one block per orbit
of that map is exponentiated (16 of the 28 for six sites).
:class:`BlockPropagator` keeps one period in the half-stored form and applies
it to a density matrix directly, writing each (kr, kl) sub-matrix as the
adjoint of the (kl, kr) one; the dense Phi_T of :func:`floquet_map` is
the segment assembled from the same blocks (:func:`interaction_propagator`)
with the kick applied, and serves cross-checks and spectra.

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

Every exponential in the package goes through :func:`matrix_exp`, numpy
scaling and squaring with the [13/13] Pade approximant with Al-Mohy &
Higham's choice of s (SIAM J. Matrix Anal. Appl. 31, 970 (2009)); the
blocks are at most 1225 x 1225 (seven sites), small enough for exact
1-norms of matrix powers.  The kernel scales the powers in place and builds
the Pade sums in reused buffers, term by term in the order of the plain
expressions, so it rounds exactly as they do.

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

from dataclasses import dataclass, field
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

    ``blocks[(kl, kr)]``, stored for kl <= kr only, acts on the row-stacked
    sub-matrix ``rho[np.ix_(sectors[kl], sectors[kr])]``; block (kr, kl) is
    its partner under :func:`_adjoint_block` and is never formed.  The kick
    adjoint, the sector order and each block's slices are fixed at
    construction, so :meth:`apply` does arithmetic only.
    """

    kick: np.ndarray
    blocks: dict
    sectors: list
    _kick_adjoint: np.ndarray = field(init=False, repr=False, compare=False)
    _order: tuple = field(init=False, repr=False, compare=False)
    _steps: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        order = np.concatenate(self.sectors)
        edges = np.cumsum([0] + [len(s) for s in self.sectors])
        span = [slice(edges[k], edges[k + 1]) for k in range(len(self.sectors))]
        object.__setattr__(self, "_kick_adjoint", self.kick.conj().T)
        object.__setattr__(self, "_order", np.ix_(order, order))
        object.__setattr__(self, "_steps", tuple(
            (span[kl], span[kr], block, kl != kr) for (kl, kr), block in self.blocks.items()))

    def apply(self, rho: np.ndarray) -> np.ndarray:
        """U1 rho U1^dagger, then every stored sector-pair block on its
        sub-matrix.

        The kicked state is reordered so that each sector is a contiguous
        range of indices; every block then reads and writes a slice.  The
        propagator preserves Hermiticity and rho is Hermitian, so the (kr, kl)
        sub-matrix of the result is the adjoint of the (kl, kr) one.
        """
        kicked = (self.kick @ rho @ self._kick_adjoint)[self._order]
        stepped = np.zeros_like(kicked)
        for rows, cols, block, mirrored in self._steps:
            sub = kicked[rows, cols]
            stepped[rows, cols] = image = (block @ sub.reshape(-1)).reshape(sub.shape)
            if mirrored:
                stepped[cols, rows] = image.conj().T
        out = np.empty_like(stepped)
        out[self._order] = stepped
        return out


#: theta_13 of Al-Mohy & Higham (2009), the largest bound eta on the scaled
#: 1-norms ||A^p||^(1/p) for which the [13/13] Pade approximant of exp has
#: backward error at most 2^-53; the approximant's coefficients b_0 ... b_13;
#: and c_27, that of the leading term of its backward-error series.
_THETA13 = 4.25
_B13 = tuple(float(factorial(26 - j) // (factorial(j) * factorial(13 - j))) for j in range(14))
_C27 = factorial(13) ** 2 / (factorial(26) * factorial(27))


def _norm1(X: np.ndarray) -> float:
    """Largest absolute column sum, the 1-norm; OverflowError if X, a power
    of the matrix, is not finite."""
    norm = np.abs(X).sum(axis=0).max()
    if not np.isfinite(norm):
        raise OverflowError("matrix exponential overflowed: a power of the matrix is not finite")
    return float(norm)


def _ell(A: np.ndarray) -> int:
    """Extra squarings l(A, 13) of Al-Mohy & Higham (2009).

    They bound the backward error of the approximant by the leading term
    c_27 || |A|^27 ||_1 / ||A||_1 of its series, whose column sums are taken
    by 27 products of a vector with |A|.
    """
    abs_a = np.abs(A)
    sums = np.ones(A.shape[0])
    for _ in range(27):
        sums = sums @ abs_a
    alpha = _C27 * _norm1(sums[np.newaxis]) / _norm1(A)  # the row ones @ |A|^27
    return max(ceil((log2(alpha) + 53) / 26), 0) if alpha else 0


def _sum_into(out: np.ndarray, scratch: np.ndarray, terms) -> np.ndarray:
    """out += c * P for each (c, P) of ``terms`` in turn, every product formed
    in ``scratch``: the sum of the plain expression, without its temporaries."""
    for c, P in terms:
        np.multiply(P, c, out=scratch)
        out += scratch
    return out


def _pade(A: np.ndarray, A2: np.ndarray, A4: np.ndarray, A6: np.ndarray):
    """The denominator V - U and numerator V + U of r_13(A) = (V - U)^-1 (V + U),
    the [13/13] Pade approximant of exp(A), from the even powers of A
    (Higham, SIAM J. Matrix Anal. Appl. 26, 1179 (2005)).

    Three buffers hold every sum and product; each sum adds its terms in the
    order of b_13 A^6 + b_11 A^4 + b_9 A^2, so every entry rounds as in
    those expressions.
    """
    b = _B13
    acc, scratch = np.multiply(A6, b[13]), np.empty_like(A)
    odd = A6 @ _sum_into(acc, scratch, ((b[11], A4), (b[9], A2)))
    _sum_into(odd, scratch, ((b[7], A6), (b[5], A4), (b[3], A2)))
    np.multiply(A6, b[12], out=acc)
    # V is formed in the scratch buffer, and acc is the scratch from here on
    V = np.matmul(A6, _sum_into(acc, scratch, ((b[10], A4), (b[8], A2))), out=scratch)
    _sum_into(V, acc, ((b[6], A6), (b[4], A4), (b[2], A2)))
    diagonal = np.diag_indices_from(A)
    odd[diagonal] += b[1]
    V[diagonal] += b[0]
    U = np.matmul(A, odd, out=acc)
    np.add(V, U, out=odd)
    V -= U
    return V, odd


def _expm(A: np.ndarray) -> np.ndarray:
    """exp(A) by scaling and squaring with the [13/13] Pade approximant and
    the choice of s of Al-Mohy & Higham (2009), Algorithm 5.1.

    The 1-norms of A^4 and A^6 are exact; ||A^8||^(1/8) and ||A^10||^(1/10)
    are bounded through them instead of estimated, which can only choose a
    larger s.  A diagonal A gets exp of its diagonal.  A is left unchanged.
    """
    if np.count_nonzero(A) == np.count_nonzero(np.diagonal(A)):
        return np.diag(np.exp(np.diagonal(A)))
    A2 = A @ A
    A4 = A2 @ A2
    A6 = A4 @ A2
    d4, d6 = _norm1(A4) ** (1 / 4), _norm1(A6) ** (1 / 6)
    # eta = min(eta_3, eta_5) with eta_3 = max(d4, d6) and eta_5 = max(d8, d10),
    # d8 <= d4 and d10 <= (||A^4|| ||A^6||)^(1/10)
    eta = min(max(d4, d6), max(d4, d4 ** 0.4 * d6 ** 0.6))
    s = max(ceil(log2(eta / _THETA13)), 0) if eta else 0
    s += _ell(A * 2.0**-s)
    step = 2.0**-s
    # A^2k scaled in place by two factors 2^-ks, so that no factor underflows
    for k, P in ((1, A2), (2, A4), (3, A6)):
        P *= step**k
        P *= step**k
    denominator, numerator = _pade(A * step, A2, A4, A6)
    del A2, A4, A6  # so the solve runs with only the two Pade factors held
    X = np.linalg.solve(denominator, numerator)
    for _ in range(s):
        X = X @ X
    return X


def matrix_exp(A: np.ndarray) -> np.ndarray:
    """Matrix exponential of a finite square matrix, real or complex.

    Scaling and squaring with the [13/13] Pade approximant with Al-Mohy &
    Higham's choice of s (SIAM J. Matrix Anal. Appl. 31, 970 (2009)), in
    numpy alone.  Raises ValueError for a non-finite entry and OverflowError
    when a power of the matrix or the exponential itself is not finite.
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


def _segment_blocks(config: SpinNetworkConfig, diagonal: bool = False):
    """exp(L2 * t2) per sector-pair block with kl <= kr, L2 = -i[H, .] +
    dephasing, H the interaction Hamiltonian of ``config``.

    H commutes with excitation number for every disorder vector.  The
    segment propagator preserves Hermiticity, so each (kr, kl) block follows
    exactly from (kl, kr) by :func:`_adjoint_block`; it is not returned, and
    the caller derives it where it needs it.  When the disorder is all zero
    the global spin flip commutes with L2, so block (kl, kr) is the partner
    of (N - kr, N - kl) with rows and columns reversed: only one block per
    orbit of (kl, kr) -> (N - kr, N - kl) is exponentiated, and the other
    derived from it.  The exponentials run in descending block size, so the
    largest runs while the fewest blocks are held.  Each diagonal block
    (k, k) is exponentiated as the real matrix its generator is in the
    Hermitian basis and mapped back.  With ``diagonal`` only the N + 1
    diagonal blocks are built.  Returns the blocks, keyed in sorted order,
    and the sectors.
    """
    n = config.n_sites
    H = hamiltonian_interaction(config)
    sectors = excitation_sectors(n)
    sizes = [len(s) for s in sectors]
    rates = dephasing_rates(n, config.gamma).reshape(config.dim, config.dim)
    keys = [(kl, kr) for kl in range(n + 1) for kr in ((kl,) if diagonal else range(kl, n + 1))]
    flip = not np.any(config.disorder)
    exponentiated = [(kl, kr) for kl, kr in keys if not flip or kl + kr <= n]
    blocks = {}
    for kl, kr in sorted(exponentiated, key=lambda key: -sizes[key[0]] * sizes[key[1]]):
        il, ir = sectors[kl], sectors[kr]
        gen = -1j * (
            np.kron(H[np.ix_(il, il)], np.eye(len(ir)))
            - np.kron(np.eye(len(il)), H[np.ix_(ir, ir)].T)
        )
        gen[np.diag_indices_from(gen)] += rates[np.ix_(il, ir)].reshape(-1)
        gen *= config.t2
        if kl == kr:
            # rebinding frees the complex generator before the real exponential
            gen = hermitian_real_form(gen, f"segment generator block {(kl, kr)}")
            blocks[(kl, kr)] = from_hermitian_basis(matrix_exp(gen))
        else:
            blocks[(kl, kr)] = matrix_exp(gen)
    for kl, kr in keys:
        if (kl, kr) not in blocks:  # the spin-flip image of an exponentiated block
            partner = _adjoint_block(blocks[(n - kr, n - kl)], sizes[n - kr], sizes[n - kl])
            blocks[(kl, kr)] = np.ascontiguousarray(partner[::-1, ::-1])
    return {key: blocks[key] for key in keys}, sectors


def _assemble_blocks(blocks, sectors, dim: int) -> np.ndarray:
    """Scatter sector-pair blocks into the dense 4^N superoperator; a block
    (kl, kr) whose partner (kr, kl) is not given also fills the partner's
    place, with :func:`_adjoint_block`."""
    out = np.zeros((dim * dim, dim * dim), dtype=complex)

    def scatter(kl, kr, block):
        rows = (sectors[kl][:, None] * dim + sectors[kr][None, :]).reshape(-1)
        out[np.ix_(rows, rows)] = block

    for (kl, kr), block in blocks.items():
        scatter(kl, kr, block)
        if (kr, kl) not in blocks:
            scatter(kr, kl, _adjoint_block(block, len(sectors[kl]), len(sectors[kr])))
    return out


def block_propagator(config: SpinNetworkConfig) -> BlockPropagator:
    """One-period propagator: the kick unitary and the interaction blocks."""
    blocks, sectors = _segment_blocks(config)
    return BlockPropagator(kick=kick_unitary(config), blocks=blocks, sectors=sectors)


def interaction_propagator(config: SpinNetworkConfig) -> np.ndarray:
    """Dense exp(L2 * t2) for the interaction segment, built blockwise."""
    require_dense(config.n_sites)
    blocks, sectors = _segment_blocks(config)
    return _assemble_blocks(blocks, sectors, config.dim)


def floquet_map(config: SpinNetworkConfig) -> DynamicalMap:
    """One-period dynamical map Phi_T (kick, then dissipative interaction).

    Right-multiplying by U1 kron conj(U1) maps each row of exp(L2 t2), read
    as a dim x dim matrix R, to U1^T R conj(U1); the batched product avoids
    forming the 4^N x 4^N Kronecker superoperator and multiplying by it.
    """
    dim = config.dim
    phi = interaction_propagator(config).reshape(dim * dim, dim, dim)
    kick = kick_unitary(config)
    np.matmul(kick.T @ phi, kick.conj(), out=phi)
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
    one set of segment blocks is exponentiated; each factor with kl > kr is
    derived from its stored partner by :func:`_adjoint_block` when its
    product is formed.
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
    plus, sectors = _segment_blocks(config, diagonal)

    def segment(kl, kr):
        if kl <= kr:
            return plus[(kl, kr)]
        return _adjoint_block(plus[(kr, kl)], len(sectors[kr]), len(sectors[kl]))

    keys = [(k, k) for k in range(n + 1)] if diagonal else \
        [(kl, kr) for kl in range(n + 1) for kr in range(n + 1)]
    return {(kl, kr): segment(kl, kr) @ segment(n - kl, n - kr)[::-1, ::-1]
            for kl, kr in keys}


def principal_log_hamiltonian(U: np.ndarray, horizon: float):
    """Hermitised (i / horizon) log U on the principal branch, and whether an
    eigenphase of U lies within 1e-6 of the +-pi cut, where the branch is ambiguous.
    U is normal, so log U = Q diag(log diag(Q^dagger U Q)) Q^dagger with Q the QR
    factor of its eigenvectors, orthonormal in degenerate eigenspaces too
    (Higham, Functions of Matrices, SIAM 2008, section 11)."""
    mu, vectors = np.linalg.eig(U)
    Q = np.linalg.qr(vectors)[0]
    H = (Q * (1j * np.log(np.diagonal(Q.conj().T @ U @ Q)) / horizon)) @ Q.conj().T
    return (H + H.conj().T) / 2.0, bool(np.any(np.abs(np.abs(np.angle(mu)) - np.pi) < 1e-6))
