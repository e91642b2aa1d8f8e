"""Measured quantities: magnetization, negativity, purity, excitations."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .operators import excitation_counts, z_sign_table
from .superop import DensityMatrixMargins


@dataclass(frozen=True)
class Partition:
    """Bipartition of the sites into disjoint regions A and B."""

    sites_a: tuple
    sites_b: tuple

    def __post_init__(self):
        a, b = set(self.sites_a), set(self.sites_b)
        if a & b:
            raise ValueError("regions A and B must be disjoint")
        n = len(a) + len(b)
        if a | b != set(range(n)):
            raise ValueError("regions A and B must cover sites 0..N-1")
        object.__setattr__(self, "sites_a", tuple(sorted(self.sites_a)))
        object.__setattr__(self, "sites_b", tuple(sorted(self.sites_b)))

    @property
    def n_sites(self) -> int:
        return len(self.sites_a) + len(self.sites_b)


def default_partition(n_sites: int) -> Partition:
    """First half of the chain as region A, the rest as region B."""
    half = n_sites // 2
    return Partition(tuple(range(half)), tuple(range(half, n_sites)))


@dataclass(frozen=True)
class ObservableTrace:
    """Stroboscopic time series recorded once per drive period."""

    periods: np.ndarray          # period indices n
    magnetization: np.ndarray    # shape (len(periods), n_sites)
    negativity: np.ndarray
    purity: np.ndarray
    excitations: np.ndarray
    worst_margins: DensityMatrixMargins | None = None  # over every recorded state


def _stacked(rho: np.ndarray) -> np.ndarray:
    """rho as a stack (m, d, d): one matrix becomes a stack of one."""
    rho = np.asarray(rho)
    return rho[np.newaxis] if rho.ndim == 2 else rho


def _scalar_or_stack(rho: np.ndarray, values: np.ndarray):
    """A float for one matrix, one value per state for a stack."""
    return float(values[0]) if np.ndim(rho) == 2 else values


def all_magnetizations(rho: np.ndarray) -> np.ndarray:
    """Per-site magnetizations Tr(rho sigma_l^z), l = 0..N-1; shape (N,) for
    one matrix and (m, N) for a stack of m."""
    states = _stacked(rho)
    n_sites = int(round(np.log2(states.shape[-1])))
    diagonals = np.diagonal(states, axis1=1, axis2=2)
    values = (diagonals[:, np.newaxis, :] * z_sign_table(n_sites)).sum(axis=-1)
    if np.abs(values.imag).max() > 1e-10:
        raise ValueError("magnetization has imaginary residue above 1e-10")
    return values.real[0] if np.ndim(rho) == 2 else values.real


def partial_transpose(rho: np.ndarray, partition: Partition) -> np.ndarray:
    """Transpose the region-B indices of rho, or of every state of a stack
    (m, d, d); an involution."""
    rho = np.asarray(rho)
    n, lead = partition.n_sites, rho.ndim - 2
    tensor = rho.reshape(rho.shape[:lead] + (2,) * (2 * n))
    for site in partition.sites_b:
        tensor = np.swapaxes(tensor, lead + site, lead + n + site)
    return tensor.reshape(rho.shape)


def negativity(rho: np.ndarray, partition: Partition):
    """Entanglement negativity (trace norm of the partial transpose - 1) / 2.

    The partial transpose of a Hermitian state is Hermitian, so its singular
    values are the absolute values of its eigenvalues; they are taken from
    eigvalsh of the Hermitian part, which discards the anti-Hermitian
    rounding residue of long evolutions.  A float for one matrix, one value
    per state for a stack (m, d, d).
    """
    states = _stacked(rho)
    pt = partial_transpose(states, partition)
    eigenvalues = np.linalg.eigvalsh((pt + pt.conj().transpose(0, 2, 1)) / 2.0)
    trace = np.trace(states, axis1=1, axis2=2).real
    return _scalar_or_stack(rho, (np.abs(eigenvalues).sum(axis=1) - trace) / 2.0)


def purity(rho: np.ndarray):
    """Tr(rho^2), computed as sum_ij rho_ij rho_ji; a float for one matrix,
    one value per state for a stack (m, d, d)."""
    states = _stacked(rho)
    return _scalar_or_stack(rho, np.sum(states * states.transpose(0, 2, 1), axis=(1, 2)).real)


def total_excitations(rho: np.ndarray):
    """Expectation of the excitation number operator; a float for one matrix,
    one value per state for a stack (m, d, d)."""
    states = _stacked(rho)
    n_sites = int(round(np.log2(states.shape[-1])))
    diagonals = np.diagonal(states, axis1=1, axis2=2)
    return _scalar_or_stack(rho, np.sum(excitation_counts(n_sites) * diagonals, axis=1).real)
