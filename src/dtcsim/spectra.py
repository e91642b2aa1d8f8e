"""Spectra, gaps and steady states of the dynamical maps.

Eigenvalues of a map with horizon tau are reported as generator rates
Lambda = log(mu) / tau (principal branch) so that gaps and relaxation times
read directly in units of 1/T.  The steady manifold of the driven network is
degenerate (one fixed point per preserved excitation sector), so the gap is
the slowest rate *outside* the whole zero manifold, not merely the second
entry of the sorted spectrum.

The perfect-pulse two-period map is block diagonal over excitation sector
pairs (k_left, k_right), and its block spectra obey two exact relations:
block (k, k') has the complex-conjugate spectrum of (k', k), because the map
preserves Hermiticity, and the same spectrum as (N - k, N - k'), because of
the global spin flip.  Each block is therefore built and diagonalised once
per orbit of these relations (16 of the 49 blocks for six sites), and
:func:`sector_eigenvalues` still returns all 4^N rates.

A diagonal block (k, k) maps the c x c sub-matrix of sector k to itself and
preserves Hermiticity, so its form in the Hermitian basis of c x c matrices
is a real matrix with the same spectrum, and
:func:`dtcsim.floquet.floquet_2T_sector_blocks` returns it in that form.
Those blocks, which hold the steady manifold and the largest block, are
diagonalised by the real eigensolver with no basis change, which is exact
up to rounding and returns the complex multipliers in exact conjugate pairs.

When the disorder is a palindrome, zero included, the chain reflection
l -> N - 1 - l commutes with the coupling, the disorder of both segments and
the dephasing, so with every Phi_2T block (a weak symmetry; Buca & Prosen,
NJP 14, 073007 (2012); Albert & Jiang, PRA 89, 022118 (2014)).  On each
block's basis it is an involutive signed permutation, so its +1 and -1
eigenvectors are unit vectors and normalised pairs of them, and each block
is diagonalised as its two parity halves of about half the dimension.

The gap needs only the N + 1 diagonal blocks: dephasing damps block (kl, kr)
to |mu| <= exp(-4 gamma t2 |kl - kr|) (log-norm bound, Soderlind 2006), with
equality in block (0, 1), so :func:`sector_gap` adds that floor rate instead.

Three thresholds are fixed: ZERO_THRESHOLD = 1e-10 bounds the steady
manifold, TRACE_CUTOFF = 1e-8 splits its steady states from its coherences,
and CONDITION_LIMIT = 1e12 marks an eigendecomposition as defective.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .floquet import DynamicalMap, floquet_2T_sector_blocks, floquet_map_2T, sector_orbits
from .operators import SpinNetworkConfig, excitation_counts, excitation_sectors
from .superop import (
    HERMITIAN_REAL_TOL,
    devectorize,
    pair_reflection,
    parity_halves,
    reflection_symmetric,
)

#: |Re Lambda| at or below this counts as part of the steady manifold (units 1/T).
ZERO_THRESHOLD = 1e-10
#: A zero mode whose |trace| exceeds this is a steady state, else a coherence.
TRACE_CUTOFF = 1e-8
#: Eigenvector condition estimate beyond which an input is reported as defective.
CONDITION_LIMIT = 1e12


@dataclass(frozen=True)
class SpectralData:
    """Full eigensystem of a map or generator.

    ``eigenvalues`` are generator rates Lambda sorted by descending real
    part; for a map input ``map_eigenvalues`` keeps the raw multipliers mu
    with Lambda = log(mu) / source_horizon.  ``left_vectors`` are normalised
    against ``right_vectors`` so that L^dagger R = identity.
    ``condition_number`` is the 1-norm condition estimate of R.
    """

    eigenvalues: np.ndarray
    right_vectors: np.ndarray
    left_vectors: np.ndarray
    source_horizon: float
    condition_number: float
    map_eigenvalues: np.ndarray | None = None


@dataclass(frozen=True)
class GapResult:
    """Liouvillian gap: slowest decay rate outside the steady manifold."""

    gap: float | None
    n_steady: int

    @property
    def relaxation_time(self) -> float | None:
        """tau = 1 / gap, in the time units of t1 and t2; None without a gap."""
        return None if self.gap in (None, 0.0) else 1.0 / self.gap


def _rates(mu: np.ndarray, horizon: float) -> np.ndarray:
    """Generator rates log(mu) / horizon, complex; mu = 0 gives the rate -inf
    with imaginary part 0, without a RuntimeWarning, and callers that report
    rates check for it.  The two parts are scaled by 1 / horizon apart,
    which rounds as numpy's complex division by a real does, but a complex
    product or quotient would turn log(0) = -inf + 0i into -inf + nan i."""
    with np.errstate(divide="ignore", invalid="ignore"):
        rates = np.log(np.asarray(mu, dtype=complex))
    scale = 1.0 / horizon
    rates.real *= scale
    rates.imag *= scale
    return rates


def spectral_distance(a, b) -> float:
    """Worst nearest-neighbour distance between two eigenvalue clouds, taken
    both ways; unlike sorting, it pairs the members of degenerate clusters.
    Brute force, 512 points of one cloud at a time (32 MB at 4096 points)."""
    a, b = np.ravel(a), np.ravel(b)
    return float(max(np.abs(x[i:i + 512, None] - y).min(axis=1).max()
                     for x, y in ((a, b), (b, a)) for i in range(0, x.size, 512)))


def eigendecompose(operator) -> SpectralData:
    """Eigendecompose a map or generator into biorthogonal spectral data.

    A :class:`DynamicalMap` is a map over its horizon; a square ndarray is a
    generator.  An eigenvector matrix whose condition estimate exceeds
    CONDITION_LIMIT is reported as numerically defective instead of silently
    returning garbage.
    """
    is_map = isinstance(operator, DynamicalMap)
    matrix = operator.matrix if is_map else np.asarray(operator)
    tau = operator.horizon if is_map else 0.0
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError("expected a square operator")

    vals, right = np.linalg.eig(matrix)
    try:
        inv_right = np.linalg.inv(right)
    except np.linalg.LinAlgError:
        raise np.linalg.LinAlgError(
            "input is defective within working precision: eigenvector matrix singular"
        ) from None
    # 1-norm condition estimate; a full SVD would dominate the runtime here
    cond = float(
        np.abs(right).sum(axis=0).max() * np.abs(inv_right).sum(axis=0).max()
    )
    if cond > CONDITION_LIMIT:
        residual = np.abs(matrix @ right - right * vals).max()
        raise np.linalg.LinAlgError(
            "input is defective within working precision: eigenvector "
            f"condition number {cond:.3e}, eigenpair residual {residual:.3e}"
        )
    lam = _rates(vals, tau) if is_map else vals
    order = np.lexsort((lam.imag, -lam.real))
    lam = lam[order]
    right = right[:, order]
    left = inv_right[order, :].conj().T  # columns biorthonormal to right
    return SpectralData(
        eigenvalues=lam,
        right_vectors=right,
        left_vectors=left,
        source_horizon=tau,
        condition_number=cond,
        map_eigenvalues=vals[order] if is_map else None,
    )


def gap_from_eigenvalues(eigenvalues: np.ndarray) -> GapResult:
    """Gap and steady-mode count from generator rates alone."""
    re = np.real(np.asarray(eigenvalues))
    n_steady = int(np.sum(np.abs(re) <= ZERO_THRESHOLD))
    decaying = re[re < -ZERO_THRESHOLD]
    gap = None if decaying.size == 0 else float(-decaying.max())
    return GapResult(gap=gap, n_steady=n_steady)


def liouvillian_gap(spec: SpectralData) -> GapResult:
    """Gap of a spectrum; see :func:`gap_from_eigenvalues`.

    The gap is -Re of the slowest eigenvalue past the zero manifold, or None
    when every eigenvalue sits within ZERO_THRESHOLD, as happens for purely
    unitary dynamics.
    """
    return gap_from_eigenvalues(spec.eigenvalues)


def steady_states(spec: SpectralData):
    """Split the zero manifold into trace-carrying states and coherence modes.

    Right eigenvectors with |Re Lambda| and |Im Lambda| at or below
    ZERO_THRESHOLD are devectorised and Hermitised.  Vectors whose |trace|
    exceeds TRACE_CUTOFF are normalised to unit trace (they span the physical
    steady manifold; an individual element of a degenerate manifold need not
    be positive).  Traceless zero modes are returned separately, Frobenius
    normalised.
    """
    lam = spec.eigenvalues
    keep = (np.abs(lam.real) <= ZERO_THRESHOLD) & (np.abs(lam.imag) <= ZERO_THRESHOLD)
    states, coherences = [], []
    for idx in np.flatnonzero(keep):
        mat = devectorize(spec.right_vectors[:, idx])
        mat = (mat + mat.conj().T) / 2.0
        tr = np.trace(mat).real
        if abs(tr) > TRACE_CUTOFF:
            states.append(mat / tr)
        else:
            coherences.append(mat / np.linalg.norm(mat))
    return states, coherences


def excitation_superop_commutant_check(dmap: DynamicalMap) -> float:
    """Residual max-norm of [Phi_2T, N_hat superoperator].

    ``dmap`` is the :func:`floquet_map_2T` of a config, the square of the
    one-period map, whose interaction segment is assembled from the
    sector-pair blocks of exp(L2 t2), so the residual checks the kick and the
    composition of two periods, not the block structure of L2; ``dtcsim
    validate`` checks that through [H2, N] = 0 (``interaction_u1_symmetry``).
    The map is commuted with both the left- and right-multiplication
    excitation superoperators, diagonal under row stacking; returns the larger.
    """
    phi2 = dmap.matrix
    counts = excitation_counts((phi2.shape[0].bit_length() - 1) // 2).astype(float)  # 4^N rows
    dim = counts.size
    left = np.repeat(counts, dim)   # N kron I
    right = np.tile(counts, dim)    # I kron N
    res_left = np.abs(phi2 * (left[None, :] - left[:, None])).max()
    res_right = np.abs(phi2 * (right[None, :] - right[:, None])).max()
    return float(max(res_left, res_right))


def _real_form(block: np.ndarray, name: str) -> np.ndarray:
    """A diagonal Phi_2T block, given in the Hermitian basis, as a real matrix.

    Raises ValueError naming ``name`` when an imaginary part exceeds
    HERMITIAN_REAL_TOL relative to max(1, max |entry|): the block does not
    preserve Hermiticity to working precision.
    """
    if not np.iscomplexobj(block):
        return block
    residue = float(np.abs(block.imag).max())
    if residue > HERMITIAN_REAL_TOL * max(1.0, float(np.abs(block).max())):
        raise ValueError(
            f"{name} does not preserve Hermiticity: its Hermitian-basis form "
            f"has imaginary parts up to {residue:.3e}"
        )
    return block.real


def sector_eigenvalues(blocks, config: SpinNetworkConfig) -> np.ndarray:
    """Pooled rates log(mu) / 2T from the Phi_2T sector blocks of ``config``.

    ``blocks`` maps orbit representatives to their blocks, as
    :func:`floquet_2T_sector_blocks` returns them; any other key raises
    ValueError.  The multipliers mu of each block go to every member of its
    orbit (:func:`dtcsim.floquet.sector_orbits`), conjugated where marked,
    before the principal-branch log is taken.  The rates come out in the
    sorted order of the sector pairs, one per basis element; their order
    within a block is not part of the contract.  A diagonal block (k, k) is
    given as the real matrix it is in the Hermitian basis, and its complex
    multipliers come in exact conjugate pairs; ValueError when it is not
    real, i.e. not the block of a perfect-pulse Phi_2T.

    When the disorder is a palindrome (zero included) the chain reflection
    commutes with every block, and each block is diagonalised as its two
    halves of reflection parity +1 and -1 (:func:`dtcsim.superop.parity_halves`).
    """
    n = config.n_sites
    orbits, sectors = sector_orbits(n), excitation_sectors(n)
    mirrored = reflection_symmetric(config.disorder)
    mus = {}
    for (kl, kr), block in blocks.items():
        if (kl, kr) not in orbits:
            raise ValueError(
                f"sector block {(kl, kr)} is not an orbit representative: "
                "pass the blocks of floquet_2T_sector_blocks")
        if kl == kr:
            block = _real_form(block, f"Phi_2T sector block {(kl, kr)}")
        halves = parity_halves(block, *pair_reflection(n, sectors, kl, kr)) if mirrored else [block]
        mu = np.concatenate([np.linalg.eigvals(half) for half in halves if len(half)])
        for key, swapped in orbits[(kl, kr)].items():
            mus[key] = mu.conj() if swapped else mu
    return _rates(np.concatenate([mus[key] for key in sorted(mus)]), 2.0 * config.period)


def sector_gap(config: SpinNetworkConfig) -> GapResult:
    """Liouvillian gap through the sector-block fast path (epsilon = 0).

    Diagonalises only the blocks (k, k) and adds the off-diagonal floor rate
    -2 gamma t2 / T, unless that floor is within ZERO_THRESHOLD of zero."""
    floor = 2.0 * config.gamma * config.t2 / config.period
    diagonal = floor > ZERO_THRESHOLD
    lam = sector_eigenvalues(floquet_2T_sector_blocks(config, diagonal), config)
    return gap_from_eigenvalues(np.append(lam, -floor) if diagonal else lam)


def spectrum_2T(config: SpinNetworkConfig) -> np.ndarray:
    """All rates Lambda = log(mu) / 2T of the multipliers mu of Phi_2T.

    Uses the sector-block path for a perfect pi pulse and the dense map
    otherwise; either way the result is the complete eigenvalue cloud.
    The rates are sorted on (-Re, Im), but many real parts are equal up to
    rounding, so a last-digit change reorders them: compare results of two
    builds, thread settings or versions as multisets (e.g. with
    :func:`spectral_distance`).  The order, within a sector block as much as
    across the sorted cloud, is not part of the contract; it is reproducible
    only on one build, thread setting and version.
    """
    if config.perfect_pulse:
        lam = sector_eigenvalues(floquet_2T_sector_blocks(config), config)
    else:
        dmap = floquet_map_2T(config)
        lam = _rates(np.linalg.eigvals(dmap.matrix), dmap.horizon)
    return lam[np.lexsort((lam.imag, -lam.real))]
