"""Shared test utilities, and the reference routes that only tests use:
Pauli embeddings, the double-period effective Hamiltonian, the effective
generator of a two-period map, the k-d tree spectral distance, the change
of a complex superoperator to the Hermitian basis and the Kronecker-product
segment generator."""

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from dtcsim import (
    DynamicalMap,
    ObservableTrace,
    SpinNetworkConfig,
    all_magnetizations,
    default_partition,
    eigendecompose,
    hamiltonian_interaction,
    kick_unitary,
    liouvillian,
    matrix_exp,
    purity,
    total_excitations,
    validate_density_matrix,
)
from dtcsim import floquet
from dtcsim.experiments import (
    CHUNK_PERIODS,
    HERM_TOL,
    POSITIVITY_TOL,
    TRACE_TOL,
    StateInvariantError,
)
from dtcsim.floquet import principal_log_hamiltonian
from dtcsim.observables import partial_transpose
from dtcsim.operators import coupling_matrix, excitation_sectors, kron_all
from dtcsim.spectra import spectral_distance
from dtcsim.superop import _sandwich, dephasing_rates, hermitian_basis

# Pauli matrices in the (|0>, |1>) ordering with sigma^z |1> = +|1>.
_PAULI = {
    "x": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "y": np.array([[0.0, 1.0j], [-1.0j, 0.0]], dtype=complex),
    "z": np.array([[-1.0, 0.0], [0.0, 1.0]], dtype=complex),
}

IDENTITY_2 = np.eye(2, dtype=complex)


def pauli(mu: str) -> np.ndarray:
    """Return the 2x2 Pauli matrix for axis ``mu`` in {'x', 'y', 'z'}."""
    try:
        return _PAULI[mu].copy()
    except KeyError:
        raise ValueError(f"unknown Pauli axis {mu!r}, expected 'x', 'y' or 'z'") from None


def embed(op: np.ndarray, site: int, n_sites: int) -> np.ndarray:
    """Embed a single-site operator at ``site`` in an ``n_sites`` register.

    Identity acts on every other site; site 0 is the leftmost tensor factor.
    """
    if not 0 <= site < n_sites:
        raise ValueError(f"site {site} out of range for {n_sites} sites")
    return kron_all(op if k == site else IDENTITY_2 for k in range(n_sites))


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


def kdtree_distance(a, b):
    """Worst nearest-neighbour distance between two eigenvalue clouds, both
    ways, from scipy's k-d tree: the reference for ``spectral_distance``."""
    pts_a, pts_b = (np.column_stack([np.real(x).ravel(), np.imag(x).ravel()]) for x in (a, b))
    return float(max(cKDTree(pts_b).query(pts_a)[0].max(),
                     cKDTree(pts_a).query(pts_b)[0].max()))


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


def embed_hamiltonian_kick(config):
    """The kick Hamiltonian as sum_l amp * embed(sigma^x, l), amp = g(1 - epsilon),
    added site by site; the bit construction should match it bit for bit."""
    amp = config.g * (1.0 - config.epsilon)
    H = np.zeros((config.dim, config.dim), dtype=complex)
    for l in range(config.n_sites):
        H += amp * embed(pauli("x"), l, config.n_sites)
    return H


def to_hermitian_basis(M):
    """T M T^dagger: a superoperator on c x c matrices in the Hermitian basis,
    the inverse of ``dtcsim.superop.from_hermitian_basis``.  The result is
    real exactly when M preserves Hermiticity."""
    d1, d2, swap = hermitian_basis(int(round(np.sqrt(len(M)))))
    return _sandwich(M, d1, d2, swap)


def kronecker_segment_generator(config, kl, kr):
    """The segment generator block (kl, kr), -i (H_l kron I - I kron H_r^T)
    plus the dephasing rates on the diagonal, times t2, in the row-stacked
    basis of matrix elements: the reference for the real Hermitian-basis
    generator of the diagonal blocks."""
    n, dim = config.n_sites, config.dim
    H = hamiltonian_interaction(config)
    sectors = excitation_sectors(n)
    il, ir = sectors[kl], sectors[kr]
    gen = -1j * (np.kron(H[np.ix_(il, il)], np.eye(len(ir)))
                 - np.kron(np.eye(len(il)), H[np.ix_(ir, ir)].T))
    rates = dephasing_rates(n, config.gamma).reshape(dim, dim)
    gen[np.diag_indices_from(gen)] += rates[np.ix_(il, ir)].reshape(-1)
    return gen * config.t2


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


#: Site counts of perfect_pulse_configs, each as often as it appears: 2..4
#: dominate, and the one-site case, which has no coupling, stays reachable.
SITE_WEIGHTS = (2, 3, 4, 2, 3, 4, 3, 4, 1)


@st.composite
def palindromic_disorder(draw, n):
    """A disorder vector of length ``n`` equal to its reverse, ``n`` >= 1."""
    half = draw(st.lists(st.floats(0.0, 30.0), min_size=(n + 1) // 2, max_size=(n + 1) // 2))
    return np.array(half + half[: n // 2][::-1])


@st.composite
def perfect_pulse_configs(draw, gammas=(0.07, 50.0, 0.0),
                          kinds=("generic", "palindromic", "zero")):
    """N from SITE_WEIGHTS, gamma drawn from ``gammas``, disorder of one of
    the ``kinds``: random, a random palindrome (so that the chain reflection
    is a symmetry) or zero, random J0 and alpha, and t1 != t2, with g fixed
    by the pi-pulse condition.  Hypothesis favours the first entry of a
    ``sampled_from``, so the default puts a dissipative gamma first."""
    n = draw(st.sampled_from(SITE_WEIGHTS))
    t1 = draw(st.floats(0.2, 0.8))
    t2 = draw(st.floats(0.2, 0.8).filter(lambda t: abs(t - t1) > 1e-3))
    kind = draw(st.sampled_from(kinds))
    if kind == "zero":
        disorder = np.zeros(n)
    elif kind == "palindromic":
        disorder = draw(palindromic_disorder(n))
    else:
        disorder = np.array(draw(st.lists(st.floats(0.0, 30.0), min_size=n, max_size=n)))
    return SpinNetworkConfig(
        n_sites=n,
        j0=draw(st.floats(0.1, 5.0)),
        alpha=draw(st.floats(0.0, 3.0)),
        g=np.pi / (2.0 * t1), t1=t1, t2=t2,
        gamma=draw(st.sampled_from(gammas)),
        disorder=disorder,
    )


def joined_segment_blocks(config, pairs=None):
    """The segment blocks of ``config`` put back whole from the parts that
    ``_segment_blocks`` returns, and the sectors."""
    parts, sectors = floquet._segment_blocks(config, pairs)
    return {key: floquet._joined(part, sectors, *key) for key, part in parts.items()}, sectors


def recorded_exponentials(monkeypatch, config, rho=None):
    """The arguments of every matrix_exp call that block_propagator(config,
    rho) makes, in order, and the propagator; later calls are recorded too.
    With palindromic disorder, zero included, the segment blocks are
    exponentiated as their chain-reflection parity halves, so each block
    gives two calls, +1 half then -1 half (one for a 1 x 1 block), not one."""
    generators = []

    def record(A):
        generators.append(A)
        return matrix_exp(A)

    monkeypatch.setattr(floquet, "matrix_exp", record)
    return generators, floquet.block_propagator(config, rho)


def negativity_svd(rho, partition):
    """Negativity from the singular values of the partial transpose, the
    reference for the eigenvalue route of ``dtcsim.negativity``."""
    singular = np.linalg.svd(partial_transpose(rho, partition), compute_uv=False)
    return float((singular.sum() - np.trace(rho).real) / 2.0)


def per_period_run(rho0, config, n_periods, step):
    """run_stroboscopic as a loop that checks and measures every period on
    its own, with the negativity from :func:`negativity_svd`.

    The reference for the chunked checks: the same StateInvariantError at
    the same period, for an invariant or a complex magnetization, and the
    same worst margins.  The states are read one at a time from the same
    trajectory of ``step`` that run_stroboscopic reads in stacks, so that
    both see the same states to the last bit.
    """
    part = default_partition(config.n_sites)
    rho0 = np.asarray(rho0, dtype=complex).reshape(config.dim, config.dim)
    states = (rho for stack in step.trajectory(rho0, n_periods + 1, CHUNK_PERIODS)
              for rho in stack)
    rows, worst = [], None
    for n, rho in enumerate(states):
        try:
            margins = validate_density_matrix(rho, trace_tol=TRACE_TOL, herm_tol=HERM_TOL,
                                              positivity_tol=POSITIVITY_TOL)
            magnetization = all_magnetizations(rho)
        except ValueError as exc:
            raise StateInvariantError(n, str(exc)) from exc
        worst = margins if worst is None else worst.worst(margins)
        rows.append((magnetization, negativity_svd(rho, part), purity(rho), total_excitations(rho)))
    mags, negs, purs, excs = zip(*rows)
    return ObservableTrace(periods=np.arange(n_periods + 1), magnetization=np.array(mags),
                           negativity=np.array(negs), purity=np.array(purs),
                           excitations=np.array(excs), worst_margins=worst)


class BranchAmbiguityWarning(UserWarning):
    """A matrix logarithm was taken with an eigenphase close to +-pi."""


def effective_hamiltonian_2T(config):
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
    H, on_cut = principal_log_hamiltonian(U2 @ U1 @ U2 @ U1, 2.0 * config.period)
    if on_cut:
        warnings.warn("eigenphase of U(2T) within 1e-6 of +-pi; principal-branch effective "
                      "Hamiltonian is ambiguous there", BranchAmbiguityWarning, stacklevel=2)
    return H


@dataclass(frozen=True)
class EffectiveGenerator:
    """Time-independent generator whose exponential reproduces a map."""

    matrix: np.ndarray
    horizon: float
    branch_note: str


def effective_liouvillian_2T(dmap: DynamicalMap) -> EffectiveGenerator:
    """Eigenvalue logarithm of a two-period map, divided by its horizon.

    Built from :func:`dtcsim.eigendecompose` as R diag(Lambda) L^dagger.
    Real parts of the generator spectrum are branch free; imaginary parts are
    only defined modulo 2*pi / horizon, which the branch note records.  A map
    whose eigenvector matrix is ill conditioned beyond CONDITION_LIMIT is
    reported as numerically defective.
    """
    if dmap.period_multiple != 2:
        raise ValueError("expected a two-period map")
    spec = eigendecompose(dmap)
    gen = (spec.right_vectors * spec.eigenvalues) @ spec.left_vectors.conj().T
    note = (
        "principal branch: Im(eigenvalues) defined modulo "
        f"{2.0 * np.pi / dmap.horizon:.6f} (= 2*pi / horizon); "
        f"eigenvector condition number {spec.condition_number:.3e}"
    )
    return EffectiveGenerator(matrix=gen, horizon=dmap.horizon, branch_note=note)
