"""Shared test utilities."""

import numpy as np
import scipy.linalg
from scipy.spatial import cKDTree

from dtcsim import embed, hamiltonian_interaction, liouvillian, pauli
from dtcsim.operators import excitation_sectors


def assert_spectra_match(a, b, tol):
    """Assert two eigenvalue multisets agree within tol.

    Plain lexicographic sorting misorders members of degenerate clusters, so
    compare sizes plus the bidirectional nearest-neighbour distance instead.
    """
    a = np.asarray(a).ravel()
    b = np.asarray(b).ravel()
    assert a.size == b.size, f"sizes differ: {a.size} vs {b.size}"
    pts_a = np.column_stack([a.real, a.imag])
    pts_b = np.column_stack([b.real, b.imag])
    d_ab = cKDTree(pts_b).query(pts_a)[0].max()
    d_ba = cKDTree(pts_a).query(pts_b)[0].max()
    assert max(d_ab, d_ba) < tol, f"spectra differ by {max(d_ab, d_ba):.3e}"


def brute_force_segment_blocks(H, config):
    """exp(L t2) on every sector-pair block, each exponentiated directly.

    The blocks are cut out of the dense Liouvillian, so neither the per-block
    generator construction nor the Hermiticity relation between blocks
    (k, k') and (k', k) is used.
    """
    n, dim = config.n_sites, config.dim
    L = liouvillian(H, n, config.gamma)
    sectors = excitation_sectors(n)
    blocks = {}
    for kl in range(n + 1):
        for kr in range(n + 1):
            rows = (sectors[kl][:, None] * dim + sectors[kr][None, :]).reshape(-1)
            blocks[(kl, kr)] = scipy.linalg.expm(L[np.ix_(rows, rows)] * config.t2)
    return blocks


def brute_force_2T_blocks(config):
    """Phi_2T sector-pair blocks with the negated-disorder segment built from
    its own Hamiltonian instead of the spin-flip relation."""
    n = config.n_sites
    H_plus = hamiltonian_interaction(config)
    onsite = sum(w * embed(pauli("z"), l, n) for l, w in enumerate(config.disorder))
    plus = brute_force_segment_blocks(H_plus, config)
    minus = brute_force_segment_blocks(H_plus - 2.0 * onsite, config)
    return {key: plus[key] @ minus[key] for key in plus}


def brute_force_2T_rates(config):
    """Generator rates from eigvals of every one of the (N + 1)^2 blocks."""
    blocks = brute_force_2T_blocks(config)
    mus = np.concatenate([np.linalg.eigvals(b) for b in blocks.values()])
    return np.log(mus) / (2.0 * config.period)
