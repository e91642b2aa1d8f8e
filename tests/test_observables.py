"""Magnetization, partial transpose, negativity, purity, excitations."""

import numpy as np
import pytest

from dtcsim import (
    InitialStateSpec,
    Partition,
    SpinNetworkConfig,
    all_magnetizations,
    build_initial_state,
    default_partition,
    devectorize,
    floquet_map,
    negativity,
    purity,
    total_excitations,
    validate_density_matrix,
    vectorize,
)
from dtcsim.observables import partial_transpose
from helpers import negativity_svd

PART6 = Partition((0, 1, 2), (3, 4, 5))


def _seeded_state():
    return build_initial_state(
        InitialStateSpec(kind="pure_pattern", pattern="111+++"), 6)


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition((0, 1), (1, 2))
    with pytest.raises(ValueError):
        Partition((0,), (2,))
    assert default_partition(6) == PART6


def test_magnetization_seeded_state():
    rho = _seeded_state()
    mags = all_magnetizations(rho)
    assert np.allclose(mags[:3], 1.0, atol=1e-12)
    assert np.allclose(mags[3:], 0.0, atol=1e-12)
    assert all_magnetizations(rho)[0] == pytest.approx(1.0)


def test_magnetization_maximally_mixed():
    assert np.allclose(all_magnetizations(np.eye(64) / 64.0), 0.0, atol=1e-14)


def test_magnetization_after_one_decoupled_period():
    cfg = SpinNetworkConfig(n_sites=2, j0=0.0, gamma=0.0)
    rho0 = build_initial_state(InitialStateSpec(kind="pure_pattern", pattern="10"), 2)
    rho1 = devectorize(floquet_map(cfg).matrix @ vectorize(rho0))
    assert all_magnetizations(rho1)[0] == pytest.approx(-1.0, abs=1e-12)


def test_partial_transpose_product_state():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    rho_a, rho_b = a @ a.conj().T, b @ b.conj().T
    rho = np.kron(rho_a, rho_b) / (np.trace(rho_a) * np.trace(rho_b)).real
    part = Partition((0,), (1,))
    expected = np.kron(rho_a, rho_b.T) / (np.trace(rho_a) * np.trace(rho_b)).real
    assert np.allclose(partial_transpose(rho, part), expected, atol=1e-14)


def test_partial_transpose_involution_and_structure():
    rng = np.random.default_rng(5)
    raw = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
    rho = raw @ raw.conj().T
    rho /= np.trace(rho)
    part = Partition((0, 2), (1, 3))
    pt = partial_transpose(rho, part)
    assert np.allclose(partial_transpose(pt, part), rho, atol=1e-15)
    assert np.allclose(pt, pt.conj().T, atol=1e-15)
    assert np.trace(pt) == pytest.approx(1.0)


def _bell_pair_state():
    """Bell pair on sites (2, 3) across the A|B cut, all other sites |0>."""
    dim = 64
    psi = np.zeros(dim, dtype=complex)
    # |00 0 0 00> + |00 1 1 00>, sites 2 and 3 entangled
    psi[0] = 1 / np.sqrt(2)
    psi[0b001100] = 1 / np.sqrt(2)
    return np.outer(psi, psi.conj())


def test_partial_transpose_bell_minimum_eigenvalue():
    rho = _bell_pair_state()
    eigs = np.linalg.eigvalsh(partial_transpose(rho, PART6))
    assert eigs.min() == pytest.approx(-0.5, abs=1e-12)


def test_negativity_product_state_zero():
    assert abs(negativity(_seeded_state(), PART6)) < 1e-12


def test_negativity_bell_pair():
    assert negativity(_bell_pair_state(), PART6) == pytest.approx(0.5, abs=1e-12)


def test_negativity_invariant_under_local_unitaries():
    rng = np.random.default_rng(11)
    rho = _bell_pair_state()
    base = negativity(rho, PART6)

    def haar(dim):
        z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        q, r = np.linalg.qr(z)
        return q * (np.diagonal(r) / np.abs(np.diagonal(r)))

    U = np.kron(haar(8), haar(8))  # local on A and on B
    rotated = U @ rho @ U.conj().T
    assert abs(negativity(rotated, PART6) - base) < 1e-10


def test_purity():
    assert purity(_seeded_state()) == pytest.approx(1.0, abs=1e-12)
    assert purity(np.eye(64) / 64.0) == pytest.approx(1.0 / 64.0, abs=1e-15)


def test_total_excitations():
    assert total_excitations(_seeded_state()) == pytest.approx(4.5, abs=1e-12)
    mixed = build_initial_state(InitialStateSpec(kind="mixed_B"), 6)
    assert total_excitations(mixed) == pytest.approx(4.5, abs=1e-12)


# -- long-run bounds over the shared 200-period default trace ----------------

def test_trace_magnetization_bounded(default_trace):
    assert np.abs(default_trace.magnetization).max() <= 1.0 + 1e-9


def test_trace_negativity_nonnegative(default_trace):
    assert default_trace.negativity.min() >= -1e-10


def test_trace_purity_bounds(default_trace):
    assert default_trace.purity.max() <= 1.0 + 1e-10
    assert default_trace.purity.min() > 0.0


def _random_mixed_states(n_sites, count, seed):
    """Random density matrices of random rank 1..dim, as a stack."""
    rng = np.random.default_rng(seed)
    dim = 2**n_sites
    states = []
    for _ in range(count):
        rank = int(rng.integers(1, dim + 1))
        a = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
        rho = a @ a.conj().T
        states.append(rho / np.trace(rho).real)
    return np.array(states)


@pytest.mark.parametrize("n_sites", [2, 3, 4, 5, 6])
def test_negativity_eigenvalue_route_matches_svd_route(n_sites):
    part = default_partition(n_sites)
    for rho in _random_mixed_states(n_sites, 12, seed=n_sites):
        assert abs(negativity(rho, part) - negativity_svd(rho, part)) < 1e-12


@pytest.mark.parametrize("n_sites", [1, 3, 6])
def test_stacked_observables_equal_single_state_values(n_sites):
    part = default_partition(n_sites)
    stack = _random_mixed_states(n_sites, 5, seed=100 + n_sites)
    per_state = {
        "all_magnetizations": all_magnetizations,
        "negativity": lambda rho: negativity(rho, part),
        "purity": purity,
        "total_excitations": total_excitations,
        "partial_transpose": lambda rho: partial_transpose(rho, part),
        "validate_density_matrix": validate_density_matrix,
    }
    for name, fn in per_state.items():
        stacked = fn(stack)
        assert len(stacked) == len(stack), name
        for i, rho in enumerate(stack):
            alone = fn(rho)
            assert np.shape(alone) == np.shape(stacked[i]), name
            if name == "validate_density_matrix":
                assert stacked[i] == alone
            else:
                assert np.array_equal(stacked[i], alone), name
    assert isinstance(negativity(stack[0], part), float)
    assert isinstance(purity(stack[0]), float)
    assert isinstance(total_excitations(stack[0]), float)
