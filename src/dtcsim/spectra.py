"""Spectral analysis of dynamical maps and generators.

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
the global spin flip.  :func:`sector_eigenvalues` therefore diagonalises one
block per orbit of these relations (16 of the 49 blocks for six sites) and
still returns all 4^N rates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .floquet import (
    DynamicalMap,
    floquet_2T_sector_blocks,
    floquet_map,
    floquet_map_2T,
)
from .operators import SpinNetworkConfig, excitation_counts, excitation_sectors
from .superop import devectorize

#: |Re Lambda| below this counts as part of the steady manifold (units 1/T).
DEFAULT_ZERO_THRESHOLD = 1e-10


class SectorLeakageError(ValueError):
    """A map claimed to be sector block diagonal has off-block weight."""


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
class EffectiveGenerator:
    """Time-independent generator whose exponential reproduces a map."""

    matrix: np.ndarray
    horizon: float
    branch_note: str


@dataclass(frozen=True)
class GapResult:
    """Liouvillian gap: slowest decay rate outside the steady manifold."""

    gap: float | None
    n_steady: int
    zero_threshold: float

    @property
    def relaxation_periods(self) -> float | None:
        """tau / T estimate, 1 / (gap * T); None when no gap is defined."""
        return None if self.gap in (None, 0.0) else 1.0 / self.gap


def eigendecompose(operator, horizon: float | None = None,
                   condition_limit: float = 1e12) -> SpectralData:
    """Eigendecompose a map or generator into biorthogonal spectral data.

    Parameters
    ----------
    operator : DynamicalMap, EffectiveGenerator or square ndarray
        A bare ndarray is treated as a generator unless ``horizon`` is given,
        in which case it is treated as a map over that duration.
    condition_limit : float
        Eigenvector condition number beyond which the input is reported as
        numerically defective instead of silently returning garbage.
    """
    is_map = False
    if isinstance(operator, DynamicalMap):
        matrix, tau, is_map = operator.matrix, operator.horizon, True
    elif isinstance(operator, EffectiveGenerator):
        matrix, tau = operator.matrix, operator.horizon
    else:
        matrix = np.asarray(operator)
        if horizon is not None:
            tau, is_map = horizon, True
        else:
            tau = 0.0
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
    if cond > condition_limit:
        residual = np.abs(matrix @ right - right * vals).max()
        raise np.linalg.LinAlgError(
            "input is defective within working precision: eigenvector "
            f"condition number {cond:.3e}, eigenpair residual {residual:.3e}"
        )
    if is_map:
        mu = vals
        lam = np.log(mu) / tau
    else:
        mu = None
        lam = vals

    order = np.lexsort((lam.imag, -lam.real))
    lam = lam[order]
    right = right[:, order]
    left = inv_right[order, :].conj().T  # columns biorthonormal to right
    return SpectralData(
        eigenvalues=lam,
        right_vectors=right,
        left_vectors=left,
        source_horizon=tau if is_map else (horizon or tau),
        condition_number=cond,
        map_eigenvalues=None if mu is None else mu[order],
    )


def effective_liouvillian_2T(
    dmap: DynamicalMap, condition_limit: float = 1e12
) -> EffectiveGenerator:
    """Eigenvalue logarithm of a two-period map, divided by its horizon.

    Built from :func:`eigendecompose` as R diag(Lambda) L^dagger.  Real parts
    of the generator spectrum are branch free; imaginary parts are only
    defined modulo 2*pi / horizon, which the branch note records.  A map
    whose eigenvector matrix is ill conditioned beyond ``condition_limit`` is
    reported as numerically defective.
    """
    if dmap.period_multiple != 2:
        raise ValueError("expected a two-period map")
    spec = eigendecompose(dmap, condition_limit=condition_limit)
    gen = (spec.right_vectors * spec.eigenvalues) @ spec.left_vectors.conj().T
    note = (
        "principal branch: Im(eigenvalues) defined modulo "
        f"{2.0 * np.pi / dmap.horizon:.6f} (= 2*pi / horizon); "
        f"eigenvector condition number {spec.condition_number:.3e}"
    )
    return EffectiveGenerator(matrix=gen, horizon=dmap.horizon, branch_note=note)


def gap_from_eigenvalues(eigenvalues: np.ndarray,
                         zero_threshold: float = DEFAULT_ZERO_THRESHOLD) -> GapResult:
    """Gap and steady-mode count from generator rates alone."""
    re = np.real(np.asarray(eigenvalues))
    n_steady = int(np.sum(np.abs(re) <= zero_threshold))
    decaying = re[re < -zero_threshold]
    gap = None if decaying.size == 0 else float(-decaying.max())
    return GapResult(gap=gap, n_steady=n_steady, zero_threshold=zero_threshold)


def liouvillian_gap(spec, zero_threshold: float = DEFAULT_ZERO_THRESHOLD) -> GapResult:
    """Gap of a spectrum: -Re of the slowest eigenvalue past the zero manifold.

    Accepts SpectralData or a raw eigenvalue array.  Returns an explicit
    no-gap result (gap = None) when every eigenvalue sits within the
    threshold, as happens for purely unitary dynamics.
    """
    lam = spec.eigenvalues if isinstance(spec, SpectralData) else spec
    return gap_from_eigenvalues(lam, zero_threshold)


def steady_states(spec: SpectralData,
                  zero_threshold: float = DEFAULT_ZERO_THRESHOLD,
                  trace_cutoff: float = 1e-8):
    """Split the zero manifold into trace-carrying states and coherence modes.

    Right eigenvectors with |Re Lambda| and |Im Lambda| below the threshold
    are devectorised and Hermitised.  Vectors with non-negligible trace are
    normalised to unit trace (they span the physical steady manifold; an
    individual element of a degenerate manifold need not be positive).
    Traceless zero modes are returned separately, Frobenius normalised.
    """
    lam = spec.eigenvalues
    keep = (np.abs(lam.real) <= zero_threshold) & (np.abs(lam.imag) <= zero_threshold)
    states, coherences = [], []
    for idx in np.flatnonzero(keep):
        mat = devectorize(spec.right_vectors[:, idx])
        mat = (mat + mat.conj().T) / 2.0
        tr = np.trace(mat).real
        if abs(tr) > trace_cutoff:
            states.append(mat / tr)
        else:
            coherences.append(mat / np.linalg.norm(mat))
    return states, coherences


def excitation_superop_commutant_check(config: SpinNetworkConfig) -> float:
    """Residual max-norm of [Phi_2T, N_hat superoperator].

    Builds the two-period map as the square of the one-period map (so the
    check is independent of any block-structure shortcut), then commutes it
    with both the left- and right-multiplication excitation superoperators,
    which are diagonal under row stacking.  Returns the larger residual.
    """
    phi = floquet_map(config).matrix
    phi2 = phi @ phi
    del phi
    counts = excitation_counts(config.n_sites).astype(float)
    dim = config.dim
    left = np.repeat(counts, dim)   # N kron I
    right = np.tile(counts, dim)    # I kron N
    res_left = np.abs(phi2 * (left[None, :] - left[:, None])).max()
    res_right = np.abs(phi2 * (right[None, :] - right[:, None])).max()
    return float(max(res_left, res_right))


def sector_block_decompose(operator, n_sites: int,
                           leakage_tol: float = 1e-10):
    """Decompose a sector-preserving superoperator into its diagonal blocks.

    Returns (blocks, leakage) where blocks maps (k_left, k_right) to the
    submatrix over vectorised basis elements |i><j| with i in sector k_left
    and j in sector k_right.  Raises SectorLeakageError if any off-block
    entry exceeds ``leakage_tol``; callers should fall back to the dense
    spectrum in that case.
    """
    matrix = operator.matrix if isinstance(operator, DynamicalMap) else np.asarray(operator)
    dim = 2**n_sites
    if matrix.shape != (dim * dim, dim * dim):
        raise ValueError(f"operator shape {matrix.shape} does not match n_sites = {n_sites}")
    sectors = excitation_sectors(n_sites)
    counts = excitation_counts(n_sites)
    group = (counts[:, None] * (n_sites + 1) + counts[None, :]).reshape(-1)

    leakage = 0.0
    blocks = {}
    for kl in range(n_sites + 1):
        for kr in range(n_sites + 1):
            rows = (sectors[kl][:, None] * dim + sectors[kr][None, :]).reshape(-1)
            sub = matrix[rows, :]
            inside = group == kl * (n_sites + 1) + kr
            blocks[(kl, kr)] = sub[:, rows]
            outside = sub[:, ~inside]
            if outside.size:
                leakage = max(leakage, float(np.abs(outside).max()))
    if leakage > leakage_tol:
        raise SectorLeakageError(
            f"off-block leakage {leakage:.3e} exceeds {leakage_tol:.0e}; "
            "the map does not preserve excitation sectors"
        )
    return blocks, leakage


def sector_eigenvalues(blocks, horizon: float) -> np.ndarray:
    """Pooled generator rates from the sector-pair blocks of Phi_2T.

    ``blocks`` maps every (k_left, k_right) of an N-site network to its
    block, as :func:`floquet_2T_sector_blocks` returns them.  Only the first
    block of each orbit under (k, k') -> (k', k) and (k, k') -> (N - k, N - k')
    is diagonalised; every other block takes the multipliers mu of its orbit,
    conjugated when the relation that reaches it includes the swap.  The
    conjugation acts on mu and the logarithm is taken afterwards, so every
    rate is the principal-branch log of a multiplier, as for a block
    diagonalised directly.  The rates come out in the block order of
    ``blocks``, one per basis element.  Raises ValueError when the block traces break either relation,
    i.e. the blocks are not those of a perfect-pulse Phi_2T.
    """
    n = max(kl for kl, _ in blocks)
    mus, pooled = {}, []
    for (kl, kr), block in blocks.items():
        images = (((n - kl, n - kr), False), ((kr, kl), True), ((n - kr, n - kl), True))
        for key, conj in images:
            if key in mus:
                mu = mus[key].conj() if conj else mus[key]
                expected = np.trace(blocks[key]).conj() if conj else np.trace(blocks[key])
                if abs(np.trace(block) - expected) > 1e-9 * len(block):
                    raise ValueError(
                        f"sector blocks {(kl, kr)} and {key} break the Phi_2T "
                        "block symmetries; their traces differ"
                    )
                break
        else:
            mu = mus[(kl, kr)] = np.linalg.eigvals(block)
        pooled.append(mu)
    return np.log(np.concatenate(pooled)) / horizon


def sector_gap(config: SpinNetworkConfig,
               zero_threshold: float = DEFAULT_ZERO_THRESHOLD) -> GapResult:
    """Liouvillian gap through the sector-block fast path (epsilon = 0)."""
    blocks = floquet_2T_sector_blocks(config)
    lam = sector_eigenvalues(blocks, 2.0 * config.period)
    return gap_from_eigenvalues(lam, zero_threshold)


def spectrum_2T(config: SpinNetworkConfig) -> np.ndarray:
    """All rates Lambda of the two-period effective generator.

    Uses the sector-block path for a perfect pi pulse and the dense map
    otherwise; either way the result is the complete eigenvalue cloud.
    """
    if config.perfect_pulse:
        lam = sector_eigenvalues(floquet_2T_sector_blocks(config), 2.0 * config.period)
    else:
        dmap = floquet_map_2T(config)
        lam = np.log(np.linalg.eigvals(dmap.matrix)) / dmap.horizon
    return lam[np.lexsort((lam.imag, -lam.real))]
