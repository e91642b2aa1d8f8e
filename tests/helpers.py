"""Shared test utilities."""

import numpy as np
import scipy.linalg
from hypothesis import strategies as st

from dtcsim import (
    ObservableTrace,
    SpinNetworkConfig,
    all_magnetizations,
    default_partition,
    hamiltonian_interaction,
    liouvillian,
    purity,
    total_excitations,
    validate_density_matrix,
)
from dtcsim.experiments import HERM_TOL, POSITIVITY_TOL, TRACE_TOL, StateInvariantError
from dtcsim.observables import partial_transpose
from dtcsim.operators import coupling_matrix, embed, excitation_sectors, pauli
from dtcsim.spectra import spectral_distance


def assert_spectra_match(a, b, tol):
    """Assert two eigenvalue multisets agree within tol.

    Plain lexicographic sorting misorders members of degenerate clusters, so
    compare sizes plus the bidirectional nearest-neighbour distance instead.
    """
    a = np.asarray(a).ravel()
    b = np.asarray(b).ravel()
    assert a.size == b.size, f"sizes differ: {a.size} vs {b.size}"
    dist = spectral_distance(a, b)
    assert dist < tol, f"spectra differ by {dist:.3e}"


def embed_hamiltonian_interaction(config):
    """The interaction Hamiltonian as a sum of embedded Pauli products.

    Each pair term is the product of two single-site embeddings and each
    disorder term one embedding, added in the order of the bit-arithmetic
    construction, which should therefore match it bit for bit.
    """
    n = config.n_sites
    J = coupling_matrix(n, config.j0, config.alpha)
    H = np.zeros((config.dim, config.dim), dtype=complex)
    for l in range(n):
        for m in range(l + 1, n):
            if J[l, m] == 0.0:
                continue
            H += J[l, m] * (
                embed(pauli("x"), l, n) @ embed(pauli("x"), m, n)
                + embed(pauli("y"), l, n) @ embed(pauli("y"), m, n)
            )
    for l in range(n):
        if config.disorder[l] != 0.0:
            H += config.disorder[l] * embed(pauli("z"), l, n)
    return H


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


@st.composite
def perfect_pulse_configs(draw, gammas=(0.0, 0.07, 50.0)):
    """N in 1..4, gamma drawn from ``gammas``, random disorder, J0, alpha and
    t1 != t2, with g fixed by the pi-pulse condition."""
    n = draw(st.integers(1, 4))
    t1 = draw(st.floats(0.2, 0.8))
    t2 = draw(st.floats(0.2, 0.8).filter(lambda t: abs(t - t1) > 1e-3))
    return SpinNetworkConfig(
        n_sites=n,
        j0=draw(st.floats(0.1, 5.0)),
        alpha=draw(st.floats(0.0, 3.0)),
        g=np.pi / (2.0 * t1), t1=t1, t2=t2,
        gamma=draw(st.sampled_from(gammas)),
        disorder=np.array(draw(st.lists(st.floats(0.0, 30.0), min_size=n, max_size=n))),
    )


def negativity_svd(rho, partition):
    """Negativity from the singular values of the partial transpose, the
    reference for the eigenvalue route of ``dtcsim.negativity``."""
    singular = np.linalg.svd(partial_transpose(rho, partition), compute_uv=False)
    return float((singular.sum() - np.trace(rho).real) / 2.0)


def per_period_run(rho0, config, n_periods, step):
    """run_stroboscopic as a loop that checks and measures every period on
    its own before stepping on, with the negativity from :func:`negativity_svd`.

    The reference for the chunked loop: the same StateInvariantError at the
    same period, and the same worst margins.
    """
    part = default_partition(config.n_sites)
    rho = np.asarray(rho0, dtype=complex).reshape(config.dim, config.dim)
    rows, worst = [], None
    for n in range(n_periods + 1):
        try:
            margins = validate_density_matrix(rho, trace_tol=TRACE_TOL, herm_tol=HERM_TOL,
                                              positivity_tol=POSITIVITY_TOL)
        except ValueError as exc:
            raise StateInvariantError(n, str(exc)) from exc
        worst = margins if worst is None else worst.worst(margins)
        rows.append((all_magnetizations(rho), negativity_svd(rho, part), purity(rho),
                     total_excitations(rho)))
        if n < n_periods:
            rho = step.apply(rho)
    mags, negs, purs, excs = zip(*rows)
    return ObservableTrace(periods=np.arange(n_periods + 1), magnetization=np.array(mags),
                           negativity=np.array(negs), purity=np.array(purs),
                           excitations=np.array(excs), worst_margins=worst)
