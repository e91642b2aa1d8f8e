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
with the kick applied, and serves cross-checks and spectra.  A perfect pi
pulse is U1 = (-i)^N X^(x)N, so its kick reverses both indices of rho, which
sends sector pair (kl, kr) to (N - kl, N - kr) while the segment keeps every
pair (weak symmetries; Buca & Prosen, NJP 14, 073007 (2012)).  There the
propagator kicks by the reversal, with no matmul, and
:func:`block_propagator` builds only the pairs that a run from a given
initial state reaches: for |111+++> 31 of the 49, from 10 exponentiated
blocks.
Each step skips the blocks whose input is exactly zero, so all of this is
exact.  The dense map keeps the numeric kick unitary.

:func:`interaction_propagator`, :func:`floquet_map` and :func:`floquet_map_2T`
form a dense 4^N x 4^N matrix and refuse N > DENSE_LIMIT before building any
block; :func:`block_propagator` and :func:`floquet_2T_sector_blocks` never do.
:func:`floquet_map_2T` is Phi_T squared, never assembled from those blocks.

The generator of a diagonal block (k, k) maps the c x c sub-matrix of sector
k to itself and preserves Hermiticity, so in the Hermitian basis of c x c
matrices it is a real matrix, which :func:`dtcsim.superop.hermitian_generator`
builds directly from the real Hamiltonian of the sector and the dephasing
rates.  Those blocks, the largest ones and the populations among them, are
exponentiated in real arithmetic and stay in that basis; the spin flip is a
signed permutation there (:func:`_flipped`).  Only the propagators that step a
state or assemble the dense map take them back to the basis of matrix
elements, once per block (:func:`dtcsim.superop.from_hermitian_basis`); the
basis change is a similarity, so the result is the same exponential up to
rounding.  The off-diagonal blocks stay complex: their real form would have
twice the dimension.

When the disorder is a palindrome, zero included, the chain reflection
l -> N - 1 - l commutes with the segment generator (a weak symmetry; Buca &
Prosen, NJP 14, 073007 (2012)), and so with each of its sector-pair blocks:
a signed permutation in the Hermitian basis of a diagonal block, a plain one
on the row-stacked elements of an off-diagonal block
(:func:`dtcsim.superop.pair_reflection`).  Each generator is then split into
its halves of reflection parity +1 and -1 (:func:`dtcsim.superop.parity_halves`),
each half is exponentiated on its own, and the block is put back from the
two exponentials by index arithmetic (:func:`dtcsim.superop.from_parity_halves`),
one half at a time: exp(G) = V+ exp(V+^T G V+) V+^T + V- exp(V-^T G V-) V-^T
exactly, as G has no entries between the halves.  That halves the dimension
of every exponential (400 -> 200 + 200 at six sites) and quarters its
working set; any other disorder is exponentiated whole.

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
(Buca & Prosen, NJP 14, 073007 (2012); Albert & Jiang, PRA 89, 022118 (2014)),
and each block is built and diagonalised once per orbit (:func:`sector_orbits`).
A diagonal block (k, k) is the real product R_k P R_(N-k) P of two real
segment blocks, P the flip's signed permutation, and is returned real, in
the Hermitian basis.
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
from .superop import (
    dephasing_rates,
    from_hermitian_basis,
    from_parity_halves,
    hermitian_generator,
    hermitian_permutation,
    pair_reflection,
    parity_halves,
    reflection_symmetric,
)


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
    """One drive period as the kick and the sector-pair blocks of
    exp(L2 * t2), applied without forming the dense 4^N map.

    ``kick`` is the kick unitary U1, or None for a perfect pi pulse, where
    U1 = (-i)^N X^(x)N and U1 rho U1^dagger is rho with both indices reversed.
    ``blocks[(kl, kr)]``, stored for kl <= kr only, acts on the row-stacked
    sub-matrix ``rho[np.ix_(sectors[kl], sectors[kr])]``; block (kr, kl) is
    its partner under :func:`_adjoint_block` and is never formed.  The
    blocks held may be a subset of the pairs (see :func:`block_propagator`);
    ``exponentiated`` counts those built by a matrix exponential, the others
    being spin-flip images of them.
    The kick adjoint, the sector order, each block's slices and the entries
    no block covers are fixed at construction, so :meth:`apply` does
    arithmetic only.
    """

    kick: np.ndarray | None
    blocks: dict
    sectors: list
    exponentiated: int
    _kick_adjoint: np.ndarray = field(init=False, repr=False, compare=False)
    _order: tuple = field(init=False, repr=False, compare=False)
    _gather: tuple = field(init=False, repr=False, compare=False)
    _steps: tuple = field(init=False, repr=False, compare=False)
    _uncovered: np.ndarray | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        order = np.concatenate(self.sectors)
        edges = np.cumsum([0] + [len(s) for s in self.sectors])
        span = [slice(edges[k], edges[k + 1]) for k in range(len(self.sectors))]
        # the reversal kick and the sector order as one gather
        source = order if self.kick is not None else len(order) - 1 - order
        uncovered = np.ones((len(order), len(order)), dtype=bool)
        for kl, kr in self.blocks:
            uncovered[span[kl], span[kr]] = uncovered[span[kr], span[kl]] = False
        object.__setattr__(self, "_kick_adjoint", None if self.kick is None
                           else self.kick.conj().T)
        object.__setattr__(self, "_order", np.ix_(order, order))
        object.__setattr__(self, "_gather", np.ix_(source, source))
        object.__setattr__(self, "_steps", tuple(
            (span[kl], span[kr], block, kl != kr) for (kl, kr), block in self.blocks.items()))
        object.__setattr__(self, "_uncovered", uncovered if uncovered.any() else None)

    def apply(self, rho: np.ndarray) -> np.ndarray:
        """U1 rho U1^dagger, then every stored sector-pair block on its
        sub-matrix.

        The kicked state is reordered so that each sector is a contiguous
        range of indices; every block then reads and writes a slice, and a
        block whose input slice is exactly zero is skipped, as its output is
        zero.  The propagator preserves Hermiticity and rho is Hermitian, so
        the (kr, kl) sub-matrix of the result is the adjoint of the (kl, kr)
        one.  Raises ValueError naming the sector pair when the kicked state
        has a nonzero entry in a pair that no block covers.
        """
        if self.kick is None:
            kicked = rho[self._gather]
        else:
            kicked = (self.kick @ rho @ self._kick_adjoint)[self._order]
        if self._uncovered is not None and kicked[self._uncovered].any():
            raise ValueError(self._refusal(kicked))
        stepped = np.zeros_like(kicked)
        for rows, cols, block, mirrored in self._steps:
            sub = kicked[rows, cols]
            if not sub.any():
                continue
            stepped[rows, cols] = image = (block @ sub.reshape(-1)).reshape(sub.shape)
            if mirrored:
                stepped[cols, rows] = image.conj().T
        out = np.empty_like(stepped)
        out[self._order] = stepped
        return out

    def _refusal(self, kicked: np.ndarray) -> str:
        """The message for a kicked state with weight outside the blocks held."""
        i, j = np.argwhere(self._uncovered & (kicked != 0))[0]
        sector = np.repeat(np.arange(len(self.sectors)), [len(s) for s in self.sectors])
        return (f"the kicked state has weight in sector pair {(int(sector[i]), int(sector[j]))}, "
                "for which this propagator holds no block")


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


def sector_orbits(n_sites: int, diagonal: bool = False) -> dict:
    """The orbits of the sector pairs (kl, kr) under the swap (kr, kl) and the
    spin flip (N - kl, N - kr), keyed in sorted order by their representatives,
    the pairs with kl <= kr and kl + kr <= N (and kl = kr with ``diagonal``).

    Each orbit maps its members to whether their Phi_2T block has the conjugate
    spectrum of the representative's: true where only the swap, alone or
    after the flip, reaches the member, so not for the swap when kl + kr = N.
    """
    n, orbits = n_sites, {}
    for kl in range(n // 2 + 1):
        for kr in ((kl,) if diagonal else range(kl, n - kl + 1)):
            unswapped = ((kl, kr), (n - kl, n - kr))
            orbits[(kl, kr)] = {key: key not in unswapped
                                for key in (*unswapped, (kr, kl), (n - kr, n - kl))}
    return orbits


def _exponentiated(config: SpinNetworkConfig, pairs) -> list:
    """The pairs among ``pairs`` whose segment block is exponentiated: every
    one with disorder; without it the orbit representatives of
    :func:`sector_orbits`, kl + kr <= N, the others being derived from them."""
    if np.any(config.disorder):
        return list(pairs)
    return [(kl, kr) for kl, kr in pairs if kl + kr <= config.n_sites]


def _segment_blocks(config: SpinNetworkConfig, pairs=None, hermitian: bool = True):
    """exp(L2 * t2) per sector-pair block (kl, kr) of ``pairs``, by default
    every pair with kl <= kr; L2 = -i[H, .] + dephasing, H the interaction
    Hamiltonian of ``config``.

    H commutes with excitation number for every disorder vector.  The
    segment propagator preserves Hermiticity, so each (kr, kl) block follows
    exactly from (kl, kr) by :func:`_adjoint_block`; it is not returned, and
    the caller derives it where it needs it.  When the disorder is all zero
    the global spin flip commutes with L2, so block (kl, kr) is the partner
    of (N - kr, N - kl) with rows and columns reversed: only the
    representatives (:func:`_exponentiated`) are exponentiated, and the
    others derived from them, so ``pairs``, given with kl <= kr in sorted
    order, must then be closed under (kl, kr) -> (N - kr, N - kl).  The
    exponentials run in descending block size, so the largest runs while the
    fewest blocks are held.  Each diagonal block (k, k) is built and
    exponentiated as the real matrix it is in the Hermitian basis
    (:func:`dtcsim.superop.hermitian_generator`), and returned so, where the
    spin flip is a signed permutation (:func:`_flipped`).  Without
    ``hermitian`` it is mapped back to the row-stacked matrix elements right
    after its exponential (:func:`dtcsim.superop.from_hermitian_basis`), so
    the conversion runs while the fewest blocks are held, and a derived
    diagonal block is then the reversed partner, as an off-diagonal one is.
    When the disorder is a palindrome (:func:`dtcsim.superop.reflection_symmetric`)
    each generator is split into its two chain-reflection parity halves, in
    the Hermitian basis for a diagonal block and on the row-stacked elements
    for an off-diagonal one, and freed; each half is exponentiated and
    scattered back into the block before the next, and only then does the
    conversion run.  ``matrix_exp`` then sees the halves, +1 before -1 (a
    1 x 1 block has no -1 half), not the blocks.
    Returns the blocks, keyed in the order of ``pairs``, and the sectors.
    """
    n = config.n_sites
    H = hamiltonian_interaction(config).real  # real symmetric, stored complex
    sectors = excitation_sectors(n)
    sizes = [len(s) for s in sectors]
    rates = dephasing_rates(n, config.gamma).reshape(config.dim, config.dim)
    keys = [(kl, kr) for kl in range(n + 1) for kr in range(kl, n + 1)] if pairs is None \
        else list(pairs)
    mirrored = reflection_symmetric(config.disorder)
    blocks = {}
    for kl, kr in sorted(_exponentiated(config, keys),
                         key=lambda key: -sizes[key[0]] * sizes[key[1]]):
        il, ir = sectors[kl], sectors[kr]
        if kl == kr:
            gen = hermitian_generator(H[np.ix_(il, il)], rates[np.ix_(il, il)])
        else:
            gen = -1j * (
                np.kron(H[np.ix_(il, il)], np.eye(len(ir)))
                - np.kron(np.eye(len(il)), H[np.ix_(ir, ir)].T)
            )
            gen[np.diag_indices_from(gen)] += rates[np.ix_(il, ir)].reshape(-1)
        gen *= config.t2
        if mirrored:
            reflection = pair_reflection(n, sectors, kl, kr)
            halves = parity_halves(gen, *reflection)
            del gen  # freed before the exponentials
            blocks[(kl, kr)] = from_parity_halves(
                (matrix_exp(half) if len(half) else half for half in halves), *reflection)
        else:
            blocks[(kl, kr)] = matrix_exp(gen)
            del gen  # freed before the conversion and the next generator
        if kl == kr and not hermitian:
            blocks[(kl, kr)] = from_hermitian_basis(blocks[(kl, kr)])
    for kl, kr in keys:
        if (kl, kr) in blocks:
            continue
        # the spin-flip image of an exponentiated block
        if kl == kr and hermitian:
            blocks[(kl, kr)] = _flipped(blocks[(n - kl, n - kl)])
        else:
            partner = _adjoint_block(blocks[(n - kr, n - kl)], sizes[n - kr], sizes[n - kl])
            blocks[(kl, kr)] = np.ascontiguousarray(partner[::-1, ::-1])
    return {key: blocks[key] for key in keys}, sectors


def _flipped(R: np.ndarray) -> np.ndarray:
    """P R P for a diagonal block R in the Hermitian basis, P the spin flip,
    which reverses the sorted basis order of a sector: the signed
    permutation of :func:`dtcsim.superop.hermitian_permutation`."""
    source, sign = hermitian_permutation(np.arange(int(round(np.sqrt(len(R)))))[::-1])
    return sign[:, None] * R[np.ix_(source, source)] * sign


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


def block_propagator(config: SpinNetworkConfig, rho: np.ndarray | None = None
                     ) -> BlockPropagator:
    """One-period propagator: the kick and the interaction blocks.

    At a perfect pi pulse the kick is the index reversal, and a pi pulse
    sends sector pair (kl, kr) to (N - kl, N - kr) while the segment keeps
    every pair, so a run from ``rho`` only visits the pairs where rho has a
    nonzero entry and their images; only those are built, folded to
    kl <= kr.  Without ``rho``, or when the kick mixes sectors, every pair
    is built.
    """
    n, sectors = config.n_sites, excitation_sectors(config.n_sites)
    pairs = [(kl, kr) for kl in range(n + 1) for kr in range(kl, n + 1)]
    kick = None if config.perfect_pulse else kick_unitary(config)
    if kick is None and rho is not None:
        pairs = [(kl, kr) for kl, kr in pairs
                 if any(np.any(rho[np.ix_(sectors[a], sectors[b])])
                        for a, b in ((kl, kr), (kr, kl), (n - kl, n - kr), (n - kr, n - kl)))]
    return BlockPropagator(kick, *_segment_blocks(config, pairs, hermitian=False),
                           exponentiated=len(_exponentiated(config, pairs)))


def interaction_propagator(config: SpinNetworkConfig) -> np.ndarray:
    """Dense exp(L2 * t2) for the interaction segment, built blockwise."""
    require_dense(config.n_sites)
    return _assemble_blocks(*_segment_blocks(config, hermitian=False), config.dim)


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
    Returns a dict mapping each representative (k_left, k_right) of
    :func:`sector_orbits` to its block, 16 of the 49 for six sites; every
    block of an orbit shares its spectrum, up to conjugation.  A diagonal
    block (k, k) is the real matrix it is in the Hermitian basis of
    :mod:`dtcsim.superop`, the product of the real segment blocks with the
    flip's signed permutation; the others are complex, on the row-stacked
    matrix elements.  The largest
    block for six sites is 400 x 400, so this is the fast path for disorder
    sweeps.  With ``diagonal`` only the blocks (k, k) with 2k <= N are built.
    """
    if not config.perfect_pulse:
        raise ValueError(
            "sector-block construction requires epsilon = 0 and 2*g*t1 = pi"
        )
    n = config.n_sites
    plus, sectors = _segment_blocks(config, [(k, k) for k in range(n + 1)] if diagonal else None)

    def segment(kl, kr):
        if kl <= kr:
            return plus[(kl, kr)]
        return _adjoint_block(plus[(kr, kl)], len(sectors[kr]), len(sectors[kl]))

    def product(kl, kr):
        if kl == kr:  # real, in the Hermitian basis
            return plus[(kl, kl)] @ _flipped(plus[(n - kl, n - kl)])
        return segment(kl, kr) @ segment(n - kl, n - kr)[::-1, ::-1]

    return {key: product(*key) for key in sector_orbits(n, diagonal)}


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
