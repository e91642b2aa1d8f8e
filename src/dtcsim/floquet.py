"""One- and two-period dynamical maps, built from the sector-pair blocks of
one period (:func:`_segment_blocks`): stepped blockwise
(:class:`BlockPropagator`), assembled densely (:func:`floquet_map`), or
multiplied into the blocks of the two-period map of a perfect pi pulse
(:func:`floquet_2T_sector_blocks`).  The dense routes check
:func:`dtcsim.operators.require_dense` before building any block.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
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
    hermitian_basis,
    hermitian_generator,
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

    def trajectory(self, rho: np.ndarray, n_records: int, size: int):
        """The states of :meth:`BlockPropagator.trajectory`, by :meth:`apply`."""
        rho = np.asarray(rho, dtype=complex)
        for start in range(0, n_records, size):
            states = np.empty((min(size, n_records - start),) + rho.shape, dtype=complex)
            with np.errstate(over="ignore", invalid="ignore"):
                for i in range(len(states)):
                    if start + i > 0:
                        rho = self.apply(rho)
                    states[i] = rho
            yield states


@dataclass(frozen=True)
class BlockPropagator:
    """One drive period as the kick and the parts of the sector-pair blocks
    of exp(L2 * t2), stepped without forming the dense 4^N map.

    ``kick`` is the kick unitary U1, or None for a perfect pi pulse,
    U1 = (-i)^N X^(x)N: that kick reverses both indices of rho, which sends
    sector pair (kl, kr) to (N - kl, N - kr), while the segment keeps every
    pair.  ``blocks[(kl, kr)]``, held for kl <= kr and possibly for a subset
    of the pairs (:func:`block_propagator`), is the tuple of parts of
    :func:`_segment_blocks`: the block on its two reflection-parity bases,
    or whole.  A state is held as its coordinates on the parts of every held
    pair: of the row-stacked ``rho[np.ix_(sectors[kl], sectors[kr])]``, or
    for kl = kr of the real Hermitian-basis coordinates of that sub-matrix;
    the partner (kr, kl) is the adjoint (:func:`_adjoint_block`).  So a
    state must be Hermitian, and each one returned is, exactly.

    At a perfect pulse the kick is one signed gather of those coordinates,
    the reversal read off their layout at construction (:func:`_signed_map`);
    a part whose kick source is not held reads a zero.  Any other kick must
    come with the block of every pair, so that no kicked state leaves them.
    So a period is the kick and one matvec per part that holds weight, and
    besides the parts the propagator keeps only index arithmetic.
    ``exponentiated`` counts the blocks built by a matrix exponential.
    """

    kick: np.ndarray | None
    blocks: dict
    sectors: list
    exponentiated: int
    _layout: tuple = field(init=False, repr=False, compare=False)
    _steps: list = field(init=False, repr=False, compare=False)
    _reversal: tuple | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n, sectors = len(self.sectors) - 1, self.sectors
        missing = [(kl, kr) for kl in range(n + 1) for kr in range(kl, n + 1)
                   if (kl, kr) not in self.blocks]
        if self.kick is not None and missing:
            raise ValueError(f"a kick other than the perfect pi pulse needs the block of "
                             f"every sector pair, and {missing[0]} is missing")
        slots = {}
        layout = _coordinate_layout({key: len(parts) == 2 for key, parts in self.blocks.items()},
                                    sectors, slots)
        object.__setattr__(self, "_layout", layout)
        object.__setattr__(self, "_steps", [
            (slots[key + (q,)], part, key[0] == key[1])
            for key, parts in self.blocks.items() for q, part in enumerate(parts) if len(part)])
        object.__setattr__(self, "_reversal", None if self.kick is not None else _signed_map(
            layout, np.arange(sum(len(s) for s in sectors))[::-1]))

    def apply(self, rho: np.ndarray) -> np.ndarray:
        """The state one period after the Hermitian ``rho``: the first step
        of :meth:`trajectory`."""
        return next(self.trajectory(rho, 2, 2))[1]

    def trajectory(self, rho: np.ndarray, n_records: int, size: int):
        """The states of periods 0 .. n_records - 1 from the Hermitian
        ``rho``, as stacks of ``size`` periods (the last may be shorter);
        period 0 is ``rho`` as given.

        The coordinates of rho (:class:`BlockPropagator`) are kicked and
        stepped, z_n = S K z_(n-1), across the stacks, and each stack is
        materialised by one gather.  S multiplies each part by its slot of
        K z, the real part for a diagonal pair.  At a perfect pulse K is the
        signed gather of the reversal, and S steps only the parts where K z
        holds weight, one list for each parity of n; otherwise K goes
        through the dense U1 rho U1^dagger and S steps every part.  Overflow
        while stepping gives non-finite states, not a warning.  At a perfect
        pulse, raises ValueError naming the sector pair when rho or its
        kicked image has weight in a pair that no block covers.
        """
        rho = np.asarray(rho, dtype=complex)
        z = _coordinates(rho[np.newaxis], self._layout)[0]
        if self.kick is None:
            self._refuse(rho[::-1, ::-1])
            self._refuse(rho)  # the state kicked twice
            steps = [[step for step in self._steps if x[step[0]].any()]
                     for x in (z, self._kicked(z))]
        else:
            steps = [self._steps] * 2
        for start in range(0, n_records, size):
            coords = np.zeros((min(size, n_records - start), len(z)), dtype=complex)
            with np.errstate(over="ignore", invalid="ignore"):
                for i, period in enumerate(range(start, start + len(coords))):
                    if period == 0:
                        coords[0] = z
                        continue
                    y = self._kicked(coords[i - 1] if i else z)
                    for slot, part, diagonal in steps[period % 2]:
                        coords[i, slot] = part @ (y[slot].real if diagonal else y[slot])
                states = _states(coords, self._layout)
            z = coords[-1]
            if start == 0:
                states[0] = rho
            yield states

    def _kicked(self, z: np.ndarray) -> np.ndarray:
        """The coordinates of the kicked state of coordinates ``z``: at a
        perfect pulse the signed gather of the reversal, conjugated, which a
        diagonal pair's step reads the real part of; otherwise
        U1 rho U1^dagger back in coordinates."""
        if self.kick is None:
            source, sign = self._reversal
            return np.conjugate(z[source] * sign)
        kicked = self.kick @ _states(z[np.newaxis], self._layout)[0] @ self.kick.conj().T
        return _coordinates(kicked[np.newaxis], self._layout)[0]

    def _refuse(self, kicked: np.ndarray):
        """ValueError naming the first sector pair, in sector order, where a
        kicked state has weight outside the blocks held: the entries that
        :func:`_states` reads from its final zero, past the conjugates."""
        q1, wholes = self._layout[3][0], len(self._layout[2][0])
        outside = (kicked != 0) & (q1.reshape(kicked.shape) == 2 * wholes)
        if not outside.any():
            return
        order = np.concatenate(self.sectors)
        i, j = np.argwhere(outside[np.ix_(order, order)])[0]
        sector = np.repeat(np.arange(len(self.sectors)), [len(s) for s in self.sectors])
        raise ValueError(f"the kicked state has weight in sector pair "
                         f"{(int(sector[i]), int(sector[j]))}, "
                         "for which this propagator holds no block")


def _coordinates(states: np.ndarray, layout: tuple) -> np.ndarray:
    """The coordinates of a stack of dense states on the parts of
    ``layout`` (:func:`_coordinate_layout`), and a trailing zero; a diagonal
    pair's carry an imaginary part that each step drops."""
    (g1, h1, g2, h2), (v1, c1, v2, c2) = layout[:2]
    flat = states.reshape(len(states), -1)
    whole = np.take(flat, g1, axis=1) * h1 + np.take(flat, g2, axis=1) * h2
    out = np.zeros((len(states), len(v1) + 1), dtype=complex)
    out[:, :-1] = np.take(whole, v1, axis=1) * c1 + np.take(whole, v2, axis=1) * c2
    return out


def _states(coords: np.ndarray, layout: tuple) -> np.ndarray:
    """The dense states of a stack of coordinates, by one gather: each pair
    (kl < kr) of ``layout`` (:func:`_coordinate_layout`) and the adjoint of
    it at (kr, kl), each diagonal pair from its Hermitian-basis
    coordinates, and zero outside those pairs."""
    (u1, w1, u2, w2), (q1, entries, p1, e1, p2, e2) = layout[2:]
    both = np.empty((len(coords), 2 * len(u1) + 1), dtype=complex)
    whole = both[:, :len(u1)]
    np.multiply(np.take(coords, u1, axis=1), w1, out=whole)
    whole += np.take(coords, u2, axis=1) * w2
    np.conjugate(whole, out=both[:, len(u1):-1])
    both[:, -1] = 0.0
    flat = np.take(both, q1, axis=1)
    flat[:, entries] = np.take(both, p1, axis=1) * e1 + np.take(both, p2, axis=1) * e2
    dim = int(round(np.sqrt(flat.shape[1])))
    return flat.reshape(len(coords), dim, dim)


def _coordinate_layout(splits: dict, sectors, slots: dict) -> tuple:
    """The index arithmetic between dense states and their coordinates on
    the parts of the pairs (kl, kr) of ``splits``, each split into its two
    parity bases or whole as its flag says (:func:`_part_bases`), each as
    (index, weight) terms: from the dense entries to each pair's whole
    coordinates, from those to the parts (V^T), back to the whole
    coordinates (V), and to the dense entries.  Fills ``slots`` with the
    slice of the coordinates of each (kl, kr, part)."""
    dim = sum(len(s) for s in sectors)
    bases = {key: _part_bases(len(sectors) - 1, *key, split) for key, split in splits.items()}
    length = sum(len(basis[0]) for parts in bases.values() for basis in parts)
    wholes = sum(len(sectors[kl]) * len(sectors[kr]) for kl, kr in splits)
    g1, g2 = np.empty(wholes, dtype=int), np.empty(wholes, dtype=int)
    h1, h2 = np.ones(wholes, dtype=complex), np.zeros(wholes, dtype=complex)
    v1, v2 = np.empty(length, dtype=int), np.empty(length, dtype=int)
    c1, c2 = np.empty(length), np.empty(length)
    u1, u2 = np.full(wholes, length), np.full(wholes, length)  # the trailing zero
    w1, w2 = np.zeros(wholes), np.zeros(wholes)
    q1 = np.full(dim * dim, 2 * wholes)  # past the conjugates: zero
    diagonal = []
    offset = start = 0
    for (kl, kr), parts in bases.items():
        il, ir = sectors[kl], sectors[kr]
        index = np.arange(start, start + len(il) * len(ir))
        entries = (il[:, None] * dim + ir[None, :]).reshape(-1)
        g1[index], g2[index] = entries, entries
        q1[entries] = index
        if kl == kr:
            d1, d2, swap = hermitian_basis(len(il))
            g2[index], h1[index], h2[index] = entries[swap], d1, d2
            diagonal.append((entries, index, index[swap], d1.conj(), d2.conj()[swap]))
        else:
            q1[(il[:, None] + ir[None, :] * dim).reshape(-1)] = wholes + index
        for q, (first, second, a, b) in enumerate(parts):
            slots[kl, kr, q] = slot = slice(offset, offset + len(first))
            v1[slot], v2[slot], c1[slot], c2[slot] = start + first, start + second, a, b
            column = np.arange(slot.start, slot.stop)
            terms = (u1, w1) if q == 0 else (u2, w2)
            terms[0][start + first], terms[1][start + first] = column, a
            paired = b != 0
            terms[0][start + second[paired]] = column[paired]
            terms[1][start + second[paired]] = b[paired]
            offset = slot.stop
        start += len(index)
    entries, p1, p2, e1, e2 = (np.concatenate(x) for x in zip(*diagonal)) if diagonal else (
        (np.empty(0, dtype=int),) * 3 + (np.empty(0, dtype=complex),) * 2)
    return ((g1, h1, g2, h2), (v1, c1, v2, c2), (u1, w1, u2, w2),
            (q1, entries, p1, e1, p2, e2))


def _signed_map(layout: tuple, order: np.ndarray) -> tuple:
    """The basis-state map rho -> rho[order][:, order] on the coordinates of
    ``layout`` (:func:`_coordinate_layout`), and their trailing zero, as the
    signed permutation (source, sign) with y[i] = sign[i] z[source[i]]; a
    coordinate whose source pair is not held reads the trailing zero.

    It is read off by pushing the distinct values 1, 2, ... through
    :func:`_states`, the map and :func:`_coordinates`.  The probe is real,
    so where the map sends an off-diagonal pair to the adjoint of the one
    held, a complex y is the conjugate of this, as the caller knows.
    ValueError unless every coordinate reads one value exactly, up to its
    sign and the rounding of the 1/sqrt2 weights, and no two read the same.
    """
    length = len(layout[1][0])
    probe = np.arange(1.0, length + 2)
    probe[-1] = 0.0
    y = _coordinates(_states(probe[np.newaxis], layout)[:, order][:, :, order], layout)[0]
    value = np.rint(y.real)
    source = np.where(value == 0, length, np.abs(value).astype(int) - 1)
    reads = np.bincount(source)  # how many coordinates read each one
    if (np.any(np.abs(y - value) > 1e-12 * np.abs(value)) or len(reads) > length + 1
            or reads[:length].max(initial=0) > 1):
        raise ValueError("the basis-state map is not a signed permutation of the coordinates")
    return source, np.where(value < 0, -1.0, 1.0)


@lru_cache(maxsize=None)
def _part_bases(n_sites: int, kl: int, kr: int, split: bool) -> tuple:
    """The bases V of the parts of sector pair (kl, kr), each as (first,
    second, a, b) with column m of V equal to a[m] e_first[m] + b[m]
    e_second[m]: when ``split`` the eigenvectors of the chain reflection
    (:func:`pair_reflection`) for eigenvalue +1 and then -1, else the
    identity; read-only.

    A fixed point i of the reflection is the eigenvector e_i of eigenvalue
    sign[i] (b = 0); a pair i < j = source[i], whose signs agree, gives
    (e_i + sign[i] e_j)/sqrt2 for +1 and (e_i - sign[i] e_j)/sqrt2 for -1.
    """
    sectors = excitation_sectors(n_sites)
    i = np.arange(len(sectors[kl]) * len(sectors[kr]))
    if split:
        source, sign = pair_reflection(n_sites, kl, kr)
        fixed, paired = source == i, i < source
        low, high, s = i[paired], source[paired], sign[paired] / np.sqrt(2.0)
        bases = []
        for parity in (1.0, -1.0):
            alone = i[fixed & (sign == parity)]
            bases.append((np.concatenate([alone, low]), np.concatenate([alone, high]),
                          np.concatenate([np.ones(alone.size),
                                          np.full(low.size, 1.0 / np.sqrt(2.0))]),
                          np.concatenate([np.zeros(alone.size), parity * s])))
    else:
        bases = [(i, i, np.ones(i.size), np.zeros(i.size))]
    for basis in bases:
        for array in basis:
            array.flags.writeable = False
    return tuple(bases)


@lru_cache(maxsize=None)
def pair_reflection(n_sites: int, kl: int, kr: int) -> tuple:
    """The chain reflection l -> N - 1 - l on sector pair (kl, kr), held
    whole, as the signed permutation (source, sign) of its coordinates with
    (P v)[i] = sign[i] v[source[i]] (:func:`_signed_map`): in the Hermitian
    basis for kl = kr, else a permutation of the row-stacked matrix
    elements; an involution, read-only.  It is a weak symmetry exactly at
    palindromic disorder (:func:`dtcsim.superop.reflection_symmetric`)."""
    bits = (np.arange(2**n_sites)[:, None] >> np.arange(n_sites)) & 1  # bit l is site N - 1 - l
    layout = _coordinate_layout({(kl, kr): False}, excitation_sectors(n_sites), {})
    source, sign = (a[:-1] for a in _signed_map(layout, bits @ (1 << np.arange(n_sites)[::-1])))
    source.flags.writeable = sign.flags.writeable = False
    return source, sign


@lru_cache(maxsize=None)
def _kick_folds(n_sites: int, kl: int, kr: int, split: bool) -> tuple:
    """The reversal kick, from the coordinates of sector pair (kl <= kr) to
    those of its image (N - kr, N - kl), per part of :func:`_part_bases`:
    (source, sign) with y_image[i] = sign[i] y[source[i]], y conjugated
    first for kl < kr, read off the layout of the two pairs
    (:func:`_signed_map`).  The spin flip commutes with the chain
    reflection, so it keeps the parity; ValueError if it does not.
    """
    image, slots = (n_sites - kr, n_sites - kl), {}
    layout = _coordinate_layout({(kl, kr): split, image: split}, excitation_sectors(n_sites), slots)
    source, sign = _signed_map(layout, np.arange(2**n_sites)[::-1])
    folds = []
    for q in range(1 + split):
        part, to = slots[kl, kr, q], slots[image + (q,)]
        part_source, part_sign = source[to] - part.start, sign[to]
        if not np.array_equal(np.sort(part_source), np.arange(part.stop - part.start)):
            raise ValueError(f"the kick is not a signed permutation between the parts of "
                             f"sector pair {(kl, kr)} and of its image")
        part_source.flags.writeable = part_sign.flags.writeable = False
        folds.append((part_source, part_sign))
    return tuple(folds)


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
    (Higham, SIAM J. Matrix Anal. Appl. 26, 1179 (2005)), in three buffers."""
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
    """exp(A) for :func:`matrix_exp`; A is left unchanged, and a diagonal A
    gets exp of its diagonal.  ||A^8||^(1/8) and ||A^10||^(1/10) are bounded
    through the exact 1-norms of A^4 and A^6 instead of estimated, which can
    only choose a larger s."""
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

    Scaling and squaring with the [13/13] Pade approximant and Al-Mohy &
    Higham's choice of s (SIAM J. Matrix Anal. Appl. 31, 970 (2009),
    Algorithm 5.1), in numpy alone.  The 1-norms of the powers are exact,
    not estimated: every block is at most 1225 x 1225 (seven sites).  The
    Pade sums are built term by term in reused buffers, in the order of the
    plain expressions, so they round as those do.  Raises ValueError for a
    non-finite entry and OverflowError when a power of the matrix or the
    exponential itself is not finite.
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

    The swap is Hermiticity preservation (:func:`_adjoint_block`).  The global
    spin flip X^(x)N keeps the XY coupling and the dephasing, negates the
    disorder, sends sector k to N - k and reverses the basis order within a
    sector (a weak symmetry; Buca & Prosen, NJP 14, 073007 (2012); Albert &
    Jiang, PRA 89, 022118 (2014)).  So segment block (kl, kr) with the
    disorder negated is block (N - kl, N - kr) with rows and columns
    reversed: the same block without disorder, and the second factor of
    Phi_2T at any disorder.  The Phi_2T blocks of an orbit share one
    spectrum; each orbit maps its members to whether theirs is the conjugate
    of the representative's, true where only the swap, alone or after the
    flip, reaches the member, so not for the swap when kl + kr = N.
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
    one with disorder, without it the representatives of :func:`sector_orbits`."""
    if np.any(config.disorder):
        return list(pairs)
    orbits = sector_orbits(config.n_sites)
    return [key for key in pairs if key in orbits]


def _segment_blocks(config: SpinNetworkConfig, pairs=None):
    """exp(L2 * t2) per sector-pair block (kl, kr) of ``pairs`` (by default
    every pair with kl <= kr), keyed in their order, as the tuple of its
    parts, and the sectors; L2 = -i[H, .] + dephasing, H the interaction
    Hamiltonian of ``config``.

    Only the pairs of :func:`_exponentiated` are exponentiated, largest
    first, while the fewest blocks are held; without disorder ``pairs``,
    sorted with kl <= kr, must be closed under (kl, kr) -> (N - kr, N - kl),
    and the others are their spin flips (:func:`_flip_image`).  A diagonal
    block is real, in the Hermitian basis
    (:func:`dtcsim.superop.hermitian_generator`).  At palindromic disorder
    the parts are the exponentials of the two parity halves of each
    generator, +1 before -1 (:func:`dtcsim.superop.reflection_symmetric`);
    otherwise the one part is the whole block.  :func:`_joined` puts a
    block back together.
    """
    n = config.n_sites
    H = hamiltonian_interaction(config).real  # real symmetric, stored complex
    sectors = excitation_sectors(n)
    sizes = [len(s) for s in sectors]
    rates = dephasing_rates(n, config.gamma).reshape(config.dim, config.dim)
    keys = [(kl, kr) for kl in range(n + 1) for kr in range(kl, n + 1)] if pairs is None \
        else list(pairs)
    mirrored = reflection_symmetric(config.disorder)
    parts = {}
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
        halves = parity_halves(gen, n, kl, kr) if mirrored else [gen]
        del gen  # freed before the exponentials
        parts[(kl, kr)] = tuple(matrix_exp(half) if len(half) else half for half in halves)
        del halves  # freed before the next generator
    return {key: parts[key] if key in parts else _flip_image(parts, sectors, *key)
            for key in keys}, sectors


def parity_halves(block: np.ndarray, n_sites: int, kl: int, kr: int) -> list:
    """V^T block V for each reflection-parity basis V of sector pair
    (kl, kr) (:func:`_part_bases`), +1 then -1, by index arithmetic; a block
    that commutes with the chain reflection has no entries between the two."""
    halves = []
    for first, second, a, b in _part_bases(n_sites, kl, kr, True):
        columns = block[:, first] * a + block[:, second] * b
        halves.append(a[:, None] * columns[first] + b[:, None] * columns[second])
    return halves


def _joined(parts, sectors, kl: int, kr: int) -> np.ndarray:
    """Block (kl, kr) from the sequence of its :func:`_segment_blocks`
    parts: the whole block, or V+ h+ V+^T + V- h- V-^T of the two parity
    halves h (:func:`parity_halves`), by index arithmetic."""
    if len(parts) == 1:
        return parts[0]
    size = len(sectors[kl]) * len(sectors[kr])
    out = np.zeros((size, size), dtype=parts[0].dtype)
    for (first, second, a, b), half in zip(_part_bases(len(sectors) - 1, kl, kr, True), parts):
        rows = np.zeros((size, len(first)), dtype=half.dtype)
        rows[first] = a[:, None] * half
        rows[second] += b[:, None] * half
        out[:, first] += rows * a
        out[:, second] += rows * b
    return out


def _flip_image(parts: dict, sectors, kl: int, kr: int) -> tuple:
    """The parts of block (kl <= kr) of the segment with the disorder
    negated, the spin flip (:func:`sector_orbits`) of the segment ``parts``
    of its image (N - kr, N - kl): Q B Q^T per part, B conjugated for
    kl < kr, with Q the signed permutation of :func:`_kick_folds` from the
    image back to (kl, kr)."""
    n = len(sectors) - 1
    image = parts[(n - kr, n - kl)]
    flipped = []
    for part, (source, sign) in zip(image, _kick_folds(n, n - kr, n - kl, len(image) == 2)):
        out = part[np.ix_(source, source)]
        if kl != kr:
            np.conjugate(out, out=out)
        out *= sign[:, None]
        out *= sign
        flipped.append(out)
    return tuple(flipped)


def _assemble_blocks(parts: dict, sectors, dim: int) -> np.ndarray:
    """Scatter the sector-pair blocks of ``parts`` (:func:`_joined`) into the
    dense 4^N superoperator, a diagonal one converted from the Hermitian
    basis; a block (kl, kr) whose partner (kr, kl) is not given also fills
    its place (:func:`_adjoint_block`)."""
    out = np.zeros((dim * dim, dim * dim), dtype=complex)

    def scatter(kl, kr, block):
        rows = (sectors[kl][:, None] * dim + sectors[kr][None, :]).reshape(-1)
        out[np.ix_(rows, rows)] = block

    for (kl, kr), part in parts.items():
        block = _joined(part, sectors, kl, kr)
        scatter(kl, kr, from_hermitian_basis(block) if kl == kr else block)
        if (kr, kl) not in parts:
            scatter(kr, kl, _adjoint_block(block, len(sectors[kl]), len(sectors[kr])))
    return out


def block_propagator(config: SpinNetworkConfig, rho: np.ndarray | None = None
                     ) -> BlockPropagator:
    """One-period propagator: the kick and the interaction blocks.

    At a perfect pi pulse a run from ``rho`` only visits the orbits of
    :func:`sector_orbits` in which rho has a nonzero entry (the reversal kick
    of :class:`BlockPropagator`), and only their pairs with kl <= kr are
    built.  Without ``rho``, or when the kick mixes sectors, every pair is
    built.
    """
    n, sectors = config.n_sites, excitation_sectors(config.n_sites)
    pairs = [(kl, kr) for kl in range(n + 1) for kr in range(kl, n + 1)]
    kick = None if config.perfect_pulse else kick_unitary(config)
    if kick is None and rho is not None:
        reached = [orbit for orbit in sector_orbits(n).values()
                   if any(np.any(rho[np.ix_(sectors[a], sectors[b])]) for a, b in orbit)]
        pairs = [key for key in pairs if any(key in orbit for orbit in reached)]
    return BlockPropagator(kick, *_segment_blocks(config, pairs),
                           exponentiated=len(_exponentiated(config, pairs)))


def interaction_propagator(config: SpinNetworkConfig) -> np.ndarray:
    """Dense exp(L2 * t2) for the interaction segment, built blockwise."""
    require_dense(config.n_sites)
    return _assemble_blocks(*_segment_blocks(config), config.dim)


def floquet_map(config: SpinNetworkConfig) -> DynamicalMap:
    """One-period dynamical map Phi_T = exp(L2 * t2) @ (U1 kron conj(U1)):
    the kick, then the dissipative interaction segment.

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
    """Phi_2T of a perfect pi pulse per orbit representative of
    :func:`sector_orbits` (16 of the 49 blocks for six sites), or with
    ``diagonal`` only the blocks (k, k) with 2k <= N.

    The two pi pulses cancel up to a global phase and negate the disorder in
    between, so Phi_2T = exp((A + D) t2) @ (exp((A + D) t2) with disorder
    negated), and block (kl, kr) is segment block (kl, kr) times the spin flip
    of segment block (N - kl, N - kr) (:func:`_flip_image`), multiplied part
    by part, the spin flip keeping the parity, and joined once
    (:func:`_joined`).  A diagonal block (k, k) is returned real, in the
    Hermitian basis; the others are complex, on the row-stacked matrix
    elements.
    """
    if not config.perfect_pulse:
        raise ValueError(
            "sector-block construction requires epsilon = 0 and 2*g*t1 = pi"
        )
    n = config.n_sites
    parts, sectors = _segment_blocks(config, [(k, k) for k in range(n + 1)] if diagonal else None)
    return {key: _joined(tuple(segment @ flipped for segment, flipped
                               in zip(parts[key], _flip_image(parts, sectors, *key))), sectors, *key)
            for key in sector_orbits(n, diagonal)}


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
