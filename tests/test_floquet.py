"""Dynamical maps, and the effective Hamiltonian and generator of the test
helpers that cross-check them."""

from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from dtcsim import (
    DynamicalMap,
    SpinNetworkConfig,
    all_magnetizations,
    devectorize,
    eigendecompose,
    floquet_2T_sector_blocks,
    floquet_map,
    floquet_map_2T,
    hamiltonian_interaction,
    kick_unitary,
    liouvillian,
    matrix_exp,
    two_site_numeric_coupling,
    vectorize,
)
from dtcsim import floquet
from dtcsim.floquet import interaction_propagator, principal_log_hamiltonian
from dtcsim.operators import excitation_sectors
from helpers import (
    BranchAmbiguityWarning,
    assert_spectra_match,
    effective_hamiltonian_2T,
    effective_liouvillian_2T,
    embed,
    pauli,
    recorded_exponentials,
    to_hermitian_basis,
)


def test_matrix_exp_zero():
    assert np.allclose(matrix_exp(np.zeros((3, 3))), np.eye(3))


def test_matrix_exp_half_period_rotation():
    out = matrix_exp(-1j * (np.pi / 2) * pauli("x"))
    assert np.abs(out - (-1j) * pauli("x")).max() < 1e-14


def test_matrix_exp_against_ode_integration():
    rng = np.random.default_rng(7)
    A = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    A /= np.abs(np.linalg.eigvals(A)).max()  # keep the norm moderate

    def rhs(_, y):
        return (A @ y.reshape(8, 8)).reshape(-1)

    sol = solve_ivp(rhs, (0.0, 1.0), np.eye(8, dtype=complex).reshape(-1),
                    rtol=1e-12, atol=1e-12)
    assert np.abs(matrix_exp(A) - sol.y[:, -1].reshape(8, 8)).max() < 1e-9


def test_matrix_exp_rejects_non_finite():
    with pytest.raises(ValueError):
        matrix_exp(np.array([[np.inf, 0.0], [0.0, 0.0]]))


def _random_generator(rng, n, dtype, norm):
    """A skew-Hermitian part of 1-norm ``norm`` less a negative semidefinite
    one of 1-norm at most 0.1, so exp(A) is a contraction that is not small."""
    G = rng.normal(size=(n, n)).astype(dtype)
    P = rng.normal(size=(n, n)).astype(dtype)
    if dtype is complex:
        G += 1j * rng.normal(size=(n, n))
        P += 1j * rng.normal(size=(n, n))
    K, D = G - G.conj().T, P @ P.conj().T
    return (norm * K / np.abs(K).sum(axis=0).max()
            - 0.1 * min(norm, 1.0) * D / np.abs(D).sum(axis=0).max())


def _close_to(out, ref):
    return np.max(np.abs(out - ref) / np.maximum(1.0, np.abs(ref)))


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("norm, degree, squarings", [
    (1e-3, 13, 0), (0.1, 13, 0), (0.5, 13, 0), (1.5, 13, 0), (3.0, 13, 0), (7.0, 13, 1),
    (6000.0, 13, 10),
])
def test_matrix_exp_matches_scipy_at_every_pade_degree(dtype, norm, degree, squarings,
                                                        monkeypatch):
    A = _random_generator(np.random.default_rng(11), 40, dtype, norm)
    pade, seen = floquet._pade, []

    def spy(scaled, A2, A4, A6):  # the [13/13] approximant, the kernel's only degree
        seen.append((13, round(np.log2(np.abs(A).sum(axis=0).max()
                                       / np.abs(scaled).sum(axis=0).max()))))
        return pade(scaled, A2, A4, A6)

    monkeypatch.setattr(floquet, "_pade", spy)
    out = matrix_exp(A)
    assert seen == [(degree, squarings)]
    assert out.dtype == np.dtype(dtype)
    assert _close_to(out, scipy.linalg.expm(A)) < 1e-12


def test_matrix_exp_matches_scipy_on_disordered_segment_generators(monkeypatch):
    # the blocks with kl <= kr; a perfect pi pulse is an index reversal and
    # takes no exponential
    cfg = SpinNetworkConfig(n_sites=4, gamma=0.05, disorder=np.array([0.3, 1.2, 2.0, 0.7]))
    generators, prop = recorded_exponentials(monkeypatch, cfg)
    assert len(generators) == prop.exponentiated == 15
    for A in generators:
        assert _close_to(matrix_exp(A), scipy.linalg.expm(A)) < 1e-12


def test_zero_disorder_exponentiates_one_block_per_spin_flip_orbit(monkeypatch):
    # one block per orbit (kl, kr) -> (4 - kr, 4 - kl) of the 15 blocks with
    # kl <= kr: the three with kl + kr = 4 are their own image.  Zero
    # disorder is a palindrome, so each block is exponentiated as its two
    # chain-reflection parity halves, +1 then -1; a 1 x 1 block has no -1 half
    cfg = SpinNetworkConfig(n_sites=4, gamma=0.05)
    generators, prop = recorded_exponentials(monkeypatch, cfg)
    segment = [A.shape for A in generators]
    assert prop.exponentiated == 9
    # (2, 2), (1, 2), (1, 1), (1, 3), (0, 2), (0, 1), (0, 3), (0, 0), (0, 4)
    sizes = [36, 24, 16, 16, 6, 4, 4, 1, 1]
    halves = [(20, 16), (12, 12), (8, 8), (8, 8), (4, 2), (2, 2), (2, 2), (1,), (1,)]
    assert [sum(pair) for pair in halves] == sizes == sorted(sizes, reverse=True)
    assert segment == [(d, d) for pair in halves for d in pair]  # the largest block first
    # the dense segment exponentiates the same blocks and no kick; the
    # dense map adds the kick
    generators.clear()
    interaction_propagator(cfg)
    assert [A.shape for A in generators] == segment
    generators.clear()
    floquet_map(cfg)
    assert [A.shape for A in generators] == segment + [(16, 16)]


@pytest.mark.parametrize("disorder, blocks", [
    (np.zeros(4), 9), (np.array([0.3, 1.2, 2.0, 0.7]), 15)], ids=["clean", "disordered"])
def test_imperfect_kick_is_exponentiated_before_the_segment_blocks(monkeypatch, disorder, blocks):
    # at epsilon != 0 the kick mixes sectors: every pair is built, and the
    # kick unitary is exponentiated first, then the same blocks as at epsilon = 0
    cfg = SpinNetworkConfig(n_sites=4, gamma=0.05, epsilon=0.05, disorder=disorder)
    generators, prop = recorded_exponentials(monkeypatch, cfg)
    assert prop.kick is not None and prop.exponentiated == blocks
    assert [A.shape for A in generators] == [(16, 16)] + [
        A.shape for A in recorded_exponentials(monkeypatch, replace(cfg, epsilon=0.0))[0]]
    assert len(prop.blocks) == 15
    for A in generators:
        assert _close_to(matrix_exp(A), scipy.linalg.expm(A)) < 1e-12


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("norm", [0.5, 600.0])  # no squaring, and seven squarings
def test_matrix_exp_leaves_its_argument_unchanged(dtype, norm):
    A = _random_generator(np.random.default_rng(12), 20, dtype, norm)
    before = A.copy()
    matrix_exp(A)
    assert np.array_equal(A, before)


@given(n=st.integers(2, 24), complex_entries=st.booleans(),
       norm=st.floats(1e-4, 50.0), seed=st.integers(0, 2**32 - 1))
def test_matrix_exp_matches_scipy_on_random_generators(n, complex_entries, norm, seed):
    # exp(A) is conditioned like ||A||_1, so two accurate kernels differ by
    # about ||A||_1 * 1e-14 here (2.6e-13 at 40); up to 50 the bound holds
    dtype = complex if complex_entries else float
    A = _random_generator(np.random.default_rng(seed), n, dtype, norm)
    assert _close_to(matrix_exp(A), scipy.linalg.expm(A)) < 1e-12


@pytest.mark.parametrize("A", [
    np.array([[0.3]]), np.array([[2.0 - 1.5j]]), np.diag([-1.0, 0.0, 4.5]),
    np.diag([1j, -2.0 + 0.5j, 0.0, 3.0]), np.zeros((5, 5)), np.zeros((5, 5), dtype=complex),
], ids=["1x1-real", "1x1-complex", "diagonal-real", "diagonal-complex", "zero-real",
        "zero-complex"])
def test_matrix_exp_of_diagonal_is_exp_of_diagonal(A):
    out = matrix_exp(A)
    assert out.dtype == A.dtype
    assert np.array_equal(out, np.diag(np.exp(np.diagonal(A))))


def test_matrix_exp_of_anti_hermitian_is_unitary():
    rng = np.random.default_rng(3)
    G = rng.normal(size=(50, 50)) + 1j * rng.normal(size=(50, 50))
    H = (G + G.conj().T) / 2
    for t in (0.01, 1.0, 40.0):
        U = matrix_exp(-1j * H * t)
        assert np.abs(U.conj().T @ U - np.eye(50)).max() < 1e-13


@pytest.mark.parametrize("dtype", [float, complex])
def test_matrix_exp_of_negated_matrix_is_inverse(dtype):
    A = _random_generator(np.random.default_rng(4), 30, dtype, 5.0)
    assert np.abs(matrix_exp(A) @ matrix_exp(-A) - np.eye(30)).max() < 1e-12


def test_matrix_exp_raises_overflow_on_an_overflowing_power():
    for big in (1e200, 1e60):  # A^4 overflows; only A^6 overflows
        with pytest.raises(OverflowError):
            matrix_exp(np.array([[0.0, big], [big, 0.0]]))


def test_matrix_exp_of_a_huge_nilpotent_is_not_overscaled():
    # a 1-norm rule for s would scale this A to zero; its powers are exact
    A = np.array([[0.0, 1e60], [0.0, 0.0]])
    assert _close_to(matrix_exp(A), np.eye(2) + A) < 1e-15


def test_kick_unitary_pi_pulse_conjugation():
    cfg = SpinNetworkConfig(n_sites=3)
    U = kick_unitary(cfg)
    for l in range(3):
        sz = embed(pauli("z"), l, 3)
        assert np.abs(U @ sz @ U.conj().T + sz).max() < 1e-13


def test_kick_unitary_identity_at_full_error():
    cfg = SpinNetworkConfig(n_sites=2, epsilon=1.0)
    assert np.allclose(kick_unitary(cfg), np.eye(4))


def test_kick_unitary_small_error_rotation():
    cfg = SpinNetworkConfig(n_sites=1, epsilon=0.03)
    U = kick_unitary(cfg)
    ket1 = np.array([0.0, 1.0], dtype=complex)
    value = ket1.conj() @ (U.conj().T @ pauli("z") @ U @ ket1)
    assert value.real == pytest.approx(-np.cos(0.03 * np.pi), abs=1e-12)


def test_floquet_map_matches_dense_library_route(small_config):
    # independent construction: scipy expm of the full Liouvillian
    cfg = small_config
    L2 = liouvillian(hamiltonian_interaction(cfg), cfg.n_sites, cfg.gamma)
    U1 = kick_unitary(cfg)
    dense = scipy.linalg.expm(L2 * cfg.t2) @ np.kron(U1, U1.conj())
    assert np.abs(floquet_map(cfg).matrix - dense).max() < 1e-12


def test_floquet_map_batched_kick_matches_kronecker_product():
    # the kick is applied as a batched product; compare with kron(U1, conj U1)
    cfg = SpinNetworkConfig(n_sites=3, epsilon=0.03, t1=0.4, t2=0.6, gamma=0.05,
                            disorder=np.array([0.2, 1.1, 0.6]))
    U1 = kick_unitary(cfg)
    dense = interaction_propagator(cfg) @ np.kron(U1, U1.conj())
    assert np.abs(floquet_map(cfg).matrix - dense).max() < 1e-12


def test_floquet_map_decoupled_pi_pulses_flip_magnetization():
    cfg = SpinNetworkConfig(n_sites=3, j0=0.0, gamma=0.0)
    rho = np.zeros((8, 8), dtype=complex)
    rho[5, 5] = 1.0  # |101>
    before = all_magnetizations(rho)
    after = all_magnetizations(devectorize(floquet_map(cfg).matrix @ vectorize(rho)))
    assert np.allclose(after, -before, atol=1e-12)


def test_floquet_map_trace_preserving(small_config):
    phi = floquet_map(small_config).matrix
    left = vectorize(np.eye(small_config.dim, dtype=complex))
    assert np.abs(left @ phi - left).max() < 1e-12


def test_floquet_map_unitary_when_gamma_zero():
    cfg = SpinNetworkConfig(n_sites=3, gamma=0.0, disorder=np.array([0.1, 0.9, 0.4]))
    mags = np.abs(np.linalg.eigvals(floquet_map(cfg).matrix))
    assert np.abs(mags - 1.0).max() < 1e-10


def test_floquet_map_2T_is_identity_without_coupling():
    cfg = SpinNetworkConfig(n_sites=2, j0=0.0, gamma=0.0)
    assert np.abs(floquet_map_2T(cfg).matrix - np.eye(16)).max() < 1e-12


def test_floquet_map_2T_squares_the_map_without_sector_blocks(small_config, monkeypatch):
    # the dense Phi_2T is the route the sector blocks are checked against,
    # so it must not be built from them, not even at a perfect pulse
    def no_blocks(*args, **kwargs):
        raise AssertionError("floquet_map_2T built the sector blocks")

    monkeypatch.setattr(floquet, "floquet_2T_sector_blocks", no_blocks)
    assert small_config.perfect_pulse
    phi = floquet_map(small_config).matrix
    assert np.array_equal(floquet_map_2T(small_config).matrix, phi @ phi)


def test_floquet_map_2T_matches_effective_unitary():
    cfg = SpinNetworkConfig(n_sites=3, gamma=0.0)
    U = matrix_exp(-2j * effective_hamiltonian_2T(cfg) * cfg.period)
    target = np.kron(U, U.conj())
    assert np.abs(floquet_map_2T(cfg).matrix - target).max() < 1e-10


def test_floquet_map_2T_with_rotation_error_still_trace_preserving():
    cfg = SpinNetworkConfig(n_sites=2, epsilon=0.07)
    phi2 = floquet_map_2T(cfg).matrix
    left = vectorize(np.eye(4, dtype=complex))
    assert np.abs(left @ phi2 - left).max() < 1e-11


def test_sector_blocks_require_perfect_pulse():
    with pytest.raises(ValueError):
        floquet_2T_sector_blocks(SpinNetworkConfig(n_sites=2, epsilon=0.05))


def test_perfect_pulse_exact_in_epsilon_tolerant_in_pulse_area():
    assert SpinNetworkConfig(n_sites=2).perfect_pulse
    assert not SpinNetworkConfig(n_sites=2, epsilon=1e-15).perfect_pulse
    assert SpinNetworkConfig(n_sites=2, g=np.pi + 1e-13).perfect_pulse
    assert not SpinNetworkConfig(n_sites=2, g=np.pi + 1e-11).perfect_pulse


def test_sector_blocks_assemble_to_the_squared_map():
    cfg = SpinNetworkConfig(n_sites=3, disorder=np.array([0.5, 1.5, 0.2]))
    phi = floquet_map(cfg).matrix
    phi_2T = phi @ phi
    sectors = excitation_sectors(3)
    for (kl, kr), block in floquet_2T_sector_blocks(cfg).items():
        rows = (sectors[kl][:, None] * cfg.dim + sectors[kr][None, :]).reshape(-1)
        want = phi_2T[np.ix_(rows, rows)]
        if kl == kr:  # held real, in the Hermitian basis
            want = to_hermitian_basis(want)
        assert np.abs(block - want).max() < 1e-12, (kl, kr)


def test_effective_hamiltonian_closed_form():
    cfg = SpinNetworkConfig(n_sites=3)
    assert np.array_equal(effective_hamiltonian_2T(cfg),
                          0.5 * hamiltonian_interaction(cfg))


def test_effective_hamiltonian_vanishes_without_coupling():
    cfg = SpinNetworkConfig(n_sites=2, j0=0.0)
    assert np.abs(effective_hamiltonian_2T(cfg)).max() < 1e-12
    # disorder alone cancels over two periods: the log route must also give 0
    cfg_w = SpinNetworkConfig(n_sites=2, j0=0.0, disorder=np.array([0.0, 1.3]))
    assert np.abs(effective_hamiltonian_2T(cfg_w)).max() < 1e-10


def test_effective_hamiltonian_one_excitation_block_matches_two_site_route():
    j0, w, t2 = 0.2 * 2 * np.pi, 3.7, 0.5
    cfg = SpinNetworkConfig(n_sites=2, j0=j0, t1=t2, t2=t2,
                            disorder=np.array([0.0, w]))
    H = effective_hamiltonian_2T(cfg)
    block = H[np.ix_([2, 1], [2, 1])]  # basis |10>, |01>
    two_site = two_site_numeric_coupling(j0, w, t2)
    assert block[0, 1] == pytest.approx(two_site.coupling, abs=1e-10)
    assert block[0, 0].real == pytest.approx(two_site.eps0, abs=1e-10)
    assert block[1, 1].real == pytest.approx(two_site.eps1, abs=1e-10)


def test_effective_hamiltonian_branch_flagged_near_pi():
    # eigenphase of U(2T) sits at pi when 2 j0 T hits pi; tiny disorder
    # forces the generic logarithm path
    cfg = SpinNetworkConfig(n_sites=2, j0=np.pi / 2,
                            disorder=np.array([0.0, 1e-9]))
    with pytest.warns(BranchAmbiguityWarning):
        effective_hamiltonian_2T(cfg)


def _haar_unitary(rng, n):
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return np.linalg.qr(z)[0]


def _logm_hamiltonian(U, horizon):
    """The reference route: Hermitised (i / horizon) scipy.linalg.logm(U)."""
    H = 1j * scipy.linalg.logm(U) / horizon
    return (H + H.conj().T) / 2.0


@given(n=st.integers(1, 8), horizon=st.floats(0.5, 4.0), seed=st.integers(0, 2**32 - 1))
def test_principal_log_matches_logm_on_random_unitaries(n, horizon, seed):
    U = _haar_unitary(np.random.default_rng(seed), n)
    H, _ = principal_log_hamiltonian(U, horizon)
    assert np.abs(H - _logm_hamiltonian(U, horizon)).max() < 1e-12


@given(theta=st.floats(-3.1, 3.1), phi=st.floats(-3.1, 3.1), seed=st.integers(0, 2**32 - 1))
def test_principal_log_matches_logm_with_a_repeated_eigenphase(theta, phi, seed):
    # eig returns an arbitrary, not necessarily orthogonal, basis of the
    # two-dimensional eigenspace; the QR step makes it orthonormal
    Q = _haar_unitary(np.random.default_rng(seed), 3)
    U = (Q * np.exp(1j * np.array([theta, theta, phi]))) @ Q.conj().T
    H, on_cut = principal_log_hamiltonian(U, 2.0)
    assert not on_cut
    assert np.abs(H - _logm_hamiltonian(U, 2.0)).max() < 1e-12


@pytest.mark.parametrize("n", range(1, 9))
def test_principal_log_of_identity_is_zero(n):
    H, on_cut = principal_log_hamiltonian(np.eye(n, dtype=complex), 2.0)
    assert not on_cut
    assert np.abs(H).max() == 0.0 == np.abs(_logm_hamiltonian(np.eye(n), 2.0)).max()


@pytest.mark.parametrize("distance, flagged", [(1e-7, True), (-1e-7, True), (1e-5, False)])
def test_principal_log_flags_an_eigenphase_near_the_cut(distance, flagged):
    # a phase pi - distance (for distance < 0: -pi - distance) next to two
    # generic ones; the flag's rule is a phase within 1e-6 of +-pi
    Q = _haar_unitary(np.random.default_rng(3), 3)
    phase = np.pi - distance if distance > 0 else -np.pi - distance
    U = (Q * np.exp(1j * np.array([phase, 0.4, -1.3]))) @ Q.conj().T
    H, on_cut = principal_log_hamiltonian(U, 2.0)
    assert on_cut is flagged
    assert np.abs(H - _logm_hamiltonian(U, 2.0)).max() < 1e-12


def test_effective_liouvillian_trivial_dynamics():
    cfg = SpinNetworkConfig(n_sites=2, j0=0.0, gamma=0.0)
    gen = effective_liouvillian_2T(floquet_map_2T(cfg))
    assert np.abs(gen.matrix).max() < 1e-12
    assert "modulo" in gen.branch_note


def test_effective_liouvillian_reconstructs_map(small_config):
    dmap = floquet_map_2T(small_config)
    gen = effective_liouvillian_2T(dmap)
    assert np.abs(matrix_exp(gen.matrix * dmap.horizon) - dmap.matrix).max() < 1e-8


def test_effective_liouvillian_matches_closed_form():
    # with no disorder the double-period generator has the closed form
    # -i[H_eff, .] + dephasing at rate gamma * t2 / T
    cfg = SpinNetworkConfig(n_sites=3)
    dmap = floquet_map_2T(cfg)
    closed = liouvillian(effective_hamiltonian_2T(cfg), cfg.n_sites,
                         cfg.gamma * cfg.t2 / cfg.period)
    assert np.abs(matrix_exp(closed * dmap.horizon) - dmap.matrix).max() < 1e-10
    # spectra agree once both are pushed back through the exponential,
    # which removes the branch freedom of the imaginary parts
    gen = effective_liouvillian_2T(dmap)
    assert_spectra_match(np.exp(np.linalg.eigvals(gen.matrix) * dmap.horizon),
                         np.exp(np.linalg.eigvals(closed) * dmap.horizon), 1e-8)


def test_effective_liouvillian_notes_condition_number(small_config):
    dmap = floquet_map_2T(small_config)
    cond = eigendecompose(dmap).condition_number
    assert 1.0 <= cond < 1e12
    assert f"condition number {cond:.3e}" in effective_liouvillian_2T(dmap).branch_note


def test_effective_liouvillian_reports_defective_map():
    jordan = DynamicalMap(matrix=np.array([[1.0, 1.0], [0.0, 1.0]]),
                          period_multiple=2, horizon=2.0)
    with pytest.raises(np.linalg.LinAlgError, match="defective"):
        effective_liouvillian_2T(jordan)


def test_effective_liouvillian_requires_two_period_map(small_config):
    with pytest.raises(ValueError):
        effective_liouvillian_2T(floquet_map(small_config))
