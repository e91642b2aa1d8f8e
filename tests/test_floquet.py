"""Dynamical maps, effective Hamiltonians and effective generators."""

import numpy as np
import pytest
import scipy.linalg
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
from dtcsim.floquet import (
    BranchAmbiguityWarning,
    _assemble_blocks,
    effective_hamiltonian_2T,
    interaction_propagator,
)
from dtcsim.operators import excitation_sectors, pauli
from dtcsim.spectra import effective_liouvillian_2T
from dtcsim.superop import dephasing_rates, hamiltonian_superop


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


@pytest.fixture
def openblas_pools():
    """Every loaded OpenBLAS pool, set to two threads and restored afterwards,
    so that the one-thread hold inside matrix_exp is visible."""
    pools = floquet._openblas_pools()
    if not pools:
        pytest.skip("no OpenBLAS with a thread-count interface is loaded")
    before = [get() for _, get in pools]
    for set_threads, _ in pools:
        set_threads(2)
    yield pools
    for (set_threads, _), count in zip(pools, before):
        set_threads(count)


def _counts(pools):
    return [get() for _, get in pools]


def test_matrix_exp_holds_every_openblas_pool_at_one_thread(openblas_pools, monkeypatch):
    seen = []
    expm = scipy.linalg.expm

    def probe(A):
        seen.append(_counts(openblas_pools))
        return expm(A)

    monkeypatch.setattr(scipy.linalg, "expm", probe)
    matrix_exp(np.eye(4))
    assert seen == [[1] * len(openblas_pools)]
    assert _counts(openblas_pools) == [2] * len(openblas_pools)


def test_matrix_exp_leaves_large_matrices_on_inherited_threads(openblas_pools, monkeypatch):
    seen = []
    expm = scipy.linalg.expm

    def probe(A):
        seen.append(_counts(openblas_pools))
        return expm(A)

    monkeypatch.setattr(scipy.linalg, "expm", probe)
    matrix_exp(np.eye(floquet.ONE_THREAD_MAX_DIM))
    matrix_exp(np.eye(floquet.ONE_THREAD_MAX_DIM + 1))
    assert seen == [[1] * len(openblas_pools), [2] * len(openblas_pools)]


def test_every_mapped_openblas_yields_a_pool():
    """numpy's and scipy's wheels each map their own OpenBLAS; a library whose
    thread symbols are not recognised would be left spinning."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split(maxsplit=5)[5].strip() for line in fh
                     if len(line.split(maxsplit=5)) == 6 and "openblas" in line}
    except OSError:
        pytest.skip("/proc/self/maps is not readable")
    if not paths:
        pytest.skip("no OpenBLAS is mapped")
    assert len(floquet._openblas_pools()) == len(paths), sorted(paths)


def test_matrix_exp_restores_thread_counts_when_it_raises(openblas_pools):
    with pytest.raises(ValueError):
        matrix_exp(np.array([[np.nan, 0.0], [0.0, 0.0]]))
    assert _counts(openblas_pools) == [2] * len(openblas_pools)


def test_matrix_exp_without_openblas_is_plain_expm(monkeypatch):
    rng = np.random.default_rng(5)
    A = rng.normal(size=(60, 60)) + 1j * rng.normal(size=(60, 60))
    monkeypatch.setattr(floquet, "_openblas_pools", lambda: ())
    assert matrix_exp(A).tobytes() == scipy.linalg.expm(A).tobytes()


def test_kick_unitary_pi_pulse_conjugation():
    from dtcsim.operators import embed

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
    blocks = floquet_2T_sector_blocks(cfg)
    assembled = _assemble_blocks(blocks, excitation_sectors(3), cfg.dim)
    phi = floquet_map(cfg).matrix
    assert np.abs(assembled - phi @ phi).max() < 1e-12


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
    closed = hamiltonian_superop(effective_hamiltonian_2T(cfg)) \
        + np.diag(dephasing_rates(cfg.n_sites, cfg.gamma * cfg.t2 / cfg.period))
    assert np.abs(matrix_exp(closed * dmap.horizon) - dmap.matrix).max() < 1e-10
    # spectra agree once both are pushed back through the exponential,
    # which removes the branch freedom of the imaginary parts
    from helpers import assert_spectra_match

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
