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

The generator of a diagonal block (k, k) maps the c x c sub-matrix of sector
k to itself and preserves Hermiticity, so in the Hermitian basis of c x c
matrices (:func:`dtcsim.superop.to_hermitian_basis`) it is a real matrix.
Those blocks, the largest ones and the populations among them, are
exponentiated in real arithmetic; the basis change is a similarity, so the
result is the same exponential up to rounding.  The off-diagonal blocks stay
complex: their real form would have twice the dimension.

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

import numpy as np
import scipy.linalg

from .operators import (
    SpinNetworkConfig,
    excitation_sectors,
    hamiltonian_interaction,
    hamiltonian_kick,
    z_sign_table,
)
from .superop import from_hermitian_basis, hermitian_real_form


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


def matrix_exp(A: np.ndarray) -> np.ndarray:
    """Matrix exponential via scaling-and-squaring with Pade approximants."""
    A = np.asarray(A)
    if not np.all(np.isfinite(A)):
        raise ValueError("matrix contains non-finite entries")
    out = scipy.linalg.expm(A)
    if not np.all(np.isfinite(out)):
        raise OverflowError("matrix exponential overflowed")
    return out


def kick_unitary(config: SpinNetworkConfig) -> np.ndarray:
    """U1 = exp(-i H1 t1); a global pi rotation about x when epsilon = 0."""
    return matrix_exp(-1j * hamiltonian_kick(config) * config.t1)


def _sector_pair_rates(signs: np.ndarray, il: np.ndarray, ir: np.ndarray,
                       gamma: float, n_sites: int) -> np.ndarray:
    """Dephasing diagonal restricted to the (il, ir) sector pair block."""
    acc = signs[:, il].T @ signs[:, ir] - n_sites
    return gamma * acc.reshape(-1)


def _adjoint_block(block: np.ndarray, a: int, c: int) -> np.ndarray:
    """Block (kr, kl) of a Hermiticity-preserving map from its block (kl, kr).

    Phi(rho^dagger) = Phi(rho)^dagger sends the (a x c) sub-matrix X of sector
    pair (kl, kr) to the (c x a) sub-matrix X^dagger of (kr, kl), so the
    partner block is the conjugate of the block with both index pairs swapped.
    """
    return block.reshape(a, c, a, c).transpose(1, 0, 3, 2).conj().reshape(a * c, a * c)


def _segment_blocks(H: np.ndarray, config: SpinNetworkConfig, duration: float):
    """exp(L * duration) per sector-pair block, L = -i[H, .] + dephasing.

    Valid for any Hamiltonian commuting with excitation number; the XY
    interaction Hamiltonian does for every disorder vector.  Only the blocks
    with kl <= kr are exponentiated; each (kr, kl) block follows exactly from
    its partner by :func:`_adjoint_block`, because the segment propagator
    preserves Hermiticity.  Each diagonal block (k, k) is exponentiated as the
    real matrix its generator is in the Hermitian basis and mapped back.
    """
    n = config.n_sites
    sectors = excitation_sectors(n)
    signs = z_sign_table(n)
    blocks = {}
    for kl in range(n + 1):
        il = sectors[kl]
        Hl = H[np.ix_(il, il)]
        for kr in range(kl, n + 1):
            ir = sectors[kr]
            Hr = H[np.ix_(ir, ir)]
            gen = -1j * (
                np.kron(Hl, np.eye(len(ir))) - np.kron(np.eye(len(il)), Hr.T)
            )
            gen[np.diag_indices_from(gen)] += _sector_pair_rates(signs, il, ir, config.gamma, n)
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
    prop = block_propagator(config)
    return _assemble_blocks(prop.blocks, prop.sectors, config.dim)


def floquet_map(config: SpinNetworkConfig) -> DynamicalMap:
    """One-period dynamical map Phi_T (kick, then dissipative interaction).

    Right-multiplying by U1 kron conj(U1) maps each row of exp(L2 t2), read
    as a dim x dim matrix R, to U1^T R conj(U1); the batched product avoids
    forming the 4^N x 4^N Kronecker superoperator and multiplying by it.
    """
    prop = block_propagator(config)
    dim = config.dim
    phi = _assemble_blocks(prop.blocks, prop.sectors, dim).reshape(dim * dim, dim, dim)
    np.matmul(prop.kick.T @ phi, prop.kick.conj(), out=phi)
    return DynamicalMap(matrix=phi.reshape(dim * dim, dim * dim), period_multiple=1,
                        horizon=config.period)


def floquet_map_2T(config: SpinNetworkConfig) -> DynamicalMap:
    """Two-period map Phi_T^2; commutes with the excitation superoperators
    when the kick is a perfect pi pulse."""
    if config.perfect_pulse:
        blocks = floquet_2T_sector_blocks(config)
        phi2 = _assemble_blocks(blocks, excitation_sectors(config.n_sites), config.dim)
    else:
        phi = floquet_map(config).matrix
        phi2 = phi @ phi
    return DynamicalMap(matrix=phi2, period_multiple=2, horizon=2.0 * config.period)


def floquet_2T_sector_blocks(config: SpinNetworkConfig):
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
    """
    if not config.perfect_pulse:
        raise ValueError(
            "sector-block construction requires epsilon = 0 and 2*g*t1 = pi"
        )
    n = config.n_sites
    plus, _ = _segment_blocks(hamiltonian_interaction(config), config, config.t2)
    return {(kl, kr): block @ plus[(n - kl, n - kr)][::-1, ::-1]
            for (kl, kr), block in plus.items()}


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
    U_2T = U2 @ U1 @ U2 @ U1
    phases = np.angle(np.linalg.eigvals(U_2T))
    if np.any(np.abs(np.abs(phases) - np.pi) < 1e-6):
        warnings.warn(
            "eigenphase of U(2T) within 1e-6 of +-pi; principal-branch "
            "effective Hamiltonian is ambiguous there",
            BranchAmbiguityWarning,
            stacklevel=2,
        )
    H = 1j * scipy.linalg.logm(U_2T) / (2.0 * config.period)
    return (H + H.conj().T) / 2.0
