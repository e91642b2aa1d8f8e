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


def magnetization(rho: np.ndarray, site: int) -> float:
    """Local magnetization Tr(rho sigma_site^z)."""
    n_sites = int(round(np.log2(rho.shape[0])))
    if not 0 <= site < n_sites:
        raise ValueError(f"site {site} out of range for {n_sites} sites")
    return float(all_magnetizations(rho)[site])


def all_magnetizations(rho: np.ndarray) -> np.ndarray:
    """Per-site magnetizations Tr(rho sigma_l^z), l = 0..N-1."""
    n_sites = int(round(np.log2(rho.shape[0])))
    values = z_sign_table(n_sites) @ np.diagonal(rho)
    if np.abs(values.imag).max() > 1e-10:
        raise ValueError("magnetization has imaginary residue above 1e-10")
    return values.real


def partial_transpose(rho: np.ndarray, partition: Partition) -> np.ndarray:
    """Transpose the region-B indices of rho; an involution."""
    n = partition.n_sites
    tensor = np.asarray(rho).reshape((2,) * (2 * n))
    for site in partition.sites_b:
        tensor = np.swapaxes(tensor, site, n + site)
    return tensor.reshape(2**n, 2**n)


def negativity(rho: np.ndarray, partition: Partition) -> float:
    """Entanglement negativity (trace norm of the partial transpose - 1) / 2.

    The trace norm is taken from singular values, which is robust for the
    nearly Hermitian inputs produced by long evolutions.
    """
    pt = partial_transpose(rho, partition)
    singular = np.linalg.svd(pt, compute_uv=False)
    return float((singular.sum() - np.trace(rho).real) / 2.0)


def purity(rho: np.ndarray) -> float:
    """Tr(rho^2), computed as sum_ij rho_ij rho_ji."""
    return float(np.sum(rho * rho.T).real)


def total_excitations(rho: np.ndarray) -> float:
    """Expectation of the excitation number operator."""
    n_sites = int(round(np.log2(rho.shape[0])))
    return float(np.sum(excitation_counts(n_sites) * np.diagonal(rho)).real)
