"""The symmetry-reduced sector route against brute force over every block.

The reduced route builds only the segment blocks with kl <= kr, without
disorder exponentiates one of them per spin-flip orbit, takes the
negated-disorder segment from the spin-flip relation and builds and
diagonalises one Phi_2T block per orbit; the brute-force route in
``helpers`` does none of that.  The orbit rule itself is checked
combinatorially, without building a block.
"""

from dataclasses import replace
from math import comb

import numpy as np
import pytest
from helpers import (
    assert_spectra_match,
    brute_force_2T_blocks,
    brute_force_2T_rates,
    brute_force_segment_blocks,
    joined_segment_blocks,
    kronecker_segment_generator,
    perfect_pulse_configs,
    to_hermitian_basis,
)
from hypothesis import given

import dtcsim.spectra
from dtcsim import (
    SpinNetworkConfig,
    SweepSpec,
    disorder_gap_sweep,
    floquet_2T_sector_blocks,
    hamiltonian_interaction,
    sector_gap,
)
from dtcsim.floquet import (
    _adjoint_block,
    _flip_image,
    _part_bases,
    _segment_blocks,
    pair_reflection,
    parity_halves,
    sector_orbits,
)
from dtcsim.spectra import gap_from_eigenvalues, sector_eigenvalues, spectral_distance
from dtcsim.superop import reflection_symmetric

CASES = [(n, gamma) for n in (1, 2, 3, 4) for gamma in (0.0, 0.07)]


def random_config(n_sites: int, gamma: float) -> SpinNetworkConfig:
    """Perfect pi pulse with random coupling, segment lengths and disorder."""
    rng = np.random.default_rng((n_sites, int(gamma * 100)))
    t1 = rng.uniform(0.3, 0.45)
    t2 = rng.uniform(0.55, 0.9)
    return SpinNetworkConfig(
        n_sites=n_sites, j0=rng.uniform(0.5, 2.0), alpha=rng.uniform(0.5, 2.5),
        g=np.pi / (2.0 * t1), t1=t1, t2=t2, gamma=gamma,
        disorder=rng.uniform(0.0, 3.0, n_sites),
    )


def assert_segment_and_2T_blocks_match_brute_force(cfg):
    """The stored segment blocks (kl <= kr) and their adjoint partners, and
    every Phi_2T block built, one per orbit, against the brute-force blocks;
    a diagonal block (k, k) is held real in the Hermitian basis, so it is
    compared with the brute-force block moved there."""
    stored, sectors = joined_segment_blocks(cfg)
    direct = brute_force_segment_blocks(hamiltonian_interaction(cfg), cfg)
    assert list(stored) == [key for key in direct if key[0] <= key[1]]
    for (kl, kr), block in stored.items():
        if kl == kr:
            assert block.dtype == float
            assert np.abs(block - to_hermitian_basis(direct[(kl, kr)])).max() < 1e-12, (kl, kr)
            continue
        assert np.abs(block - direct[(kl, kr)]).max() < 1e-12, (kl, kr)
        partner = _adjoint_block(block, len(sectors[kl]), len(sectors[kr]))
        assert np.abs(partner - direct[(kr, kl)]).max() < 1e-12, (kr, kl)
    if cfg.perfect_pulse:
        blocks = floquet_2T_sector_blocks(cfg)
        direct_2T = brute_force_2T_blocks(cfg)
        assert list(blocks) == list(sector_orbits(cfg.n_sites))
        for (kl, kr), block in blocks.items():
            want = direct_2T[(kl, kr)]
            if kl == kr:
                want = to_hermitian_basis(want)
            assert np.abs(block - want).max() < 1e-12, (kl, kr)


@pytest.mark.parametrize("n_sites,gamma", CASES)
def test_derived_blocks_match_direct_exponentials(n_sites, gamma):
    assert_segment_and_2T_blocks_match_brute_force(random_config(n_sites, gamma))


@pytest.mark.parametrize("epsilon", [0.0, 0.05])
@pytest.mark.parametrize("gamma", [0.0, 0.07])
@pytest.mark.parametrize("n_sites", [1, 2, 3, 4, 5])
def test_spin_flip_orbit_blocks_match_direct_exponentials(n_sites, gamma, epsilon):
    # without disorder one block per orbit (kl, kr) -> (N - kr, N - kl) is
    # exponentiated and the other one derived; the segment does not see
    # epsilon, and Phi_2T needs a perfect pulse, so it is checked at 0 only
    cfg = replace(random_config(n_sites, gamma), epsilon=epsilon, disorder=np.zeros(n_sites))
    assert cfg.t1 != cfg.t2
    assert_segment_and_2T_blocks_match_brute_force(cfg)


@pytest.mark.parametrize("n_sites,gamma", CASES)
def test_reduced_spectrum_matches_all_blocks(n_sites, gamma):
    cfg = random_config(n_sites, gamma)
    horizon = 2.0 * cfg.period
    reduced = sector_eigenvalues(floquet_2T_sector_blocks(cfg), cfg)
    brute = brute_force_2T_rates(cfg)
    assert reduced.size == cfg.dim**2
    assert_spectra_match(np.exp(reduced * horizon), np.exp(brute * horizon), 1e-10)
    fast, slow = sector_gap(cfg), gap_from_eigenvalues(brute)
    assert fast.n_steady == slow.n_steady
    if slow.gap is None:
        assert fast.gap is None
    else:
        assert fast.gap == pytest.approx(slow.gap, abs=1e-10)


@given(perfect_pulse_configs())
def test_sector_eigenvalues_matches_brute_force_over_random_networks(cfg):
    # palindromic disorder (zero included) takes the reflection-parity split,
    # generic disorder the unsplit blocks; the brute-force rates come from
    # every complex block, unsplit and without the orbit rule
    horizon = 2.0 * cfg.period
    reduced = sector_eigenvalues(floquet_2T_sector_blocks(cfg), cfg)
    brute = brute_force_2T_rates(cfg)
    assert reduced.size == brute.size == cfg.dim**2

    def multipliers(rates):  # exp(rate * 2T), a rate of -inf giving 0
        return np.exp(rates.real * horizon) * np.exp(1j * rates.imag * horizon)

    assert spectral_distance(multipliers(reduced), multipliers(brute)) <= 1e-12
    assert gap_from_eigenvalues(reduced).n_steady == gap_from_eigenvalues(brute).n_steady


def test_a_multiplier_of_exactly_zero_has_the_rate_minus_infinity():
    # at this config the real eigensolver returns an exact 0 for a diagonal
    # block; its rate is -inf with imaginary part 0, not -inf + nan i
    cfg = SpinNetworkConfig(n_sites=2, j0=1.0, alpha=0.0, g=np.pi / 1.5, t1=0.75, t2=0.5,
                            gamma=50.0)
    rates = sector_eigenvalues(floquet_2T_sector_blocks(cfg), cfg)
    infinite = np.isinf(rates.real)
    assert infinite.any() and not np.isnan(rates).any()
    assert np.all(rates[infinite] == -np.inf)
    assert np.all(np.isfinite(rates[~infinite]))


def test_a_negative_real_multiplier_has_a_finite_rate():
    # every multiplier of these diagonal blocks is real, so the real
    # eigensolver returns a real array; a negative multiplier has the rate
    # log|mu| / 2T + i pi / 2T, not the nan of a real logarithm
    cfg = SpinNetworkConfig(n_sites=3, j0=1.0, alpha=0.0, g=2.0 * np.pi, t1=0.25, t2=0.25,
                            gamma=50.0)
    rates = sector_eigenvalues(floquet_2T_sector_blocks(cfg, diagonal=True), cfg)
    assert not np.isnan(rates).any()
    negative = np.isclose(rates.imag, np.pi / (2.0 * cfg.period))
    assert negative.any() and np.all(np.isfinite(rates[negative]))


@pytest.mark.parametrize("kind", ["zero", "palindrome"])
@pytest.mark.parametrize("n_sites", [3, 4, 5])
def test_phi_2T_blocks_are_the_products_of_their_parity_halves(n_sites, kind):
    # at palindromic disorder, zero included, each Phi_2T block is formed
    # half by half from the parts of its two segment factors and joined
    # once: read back on the parity bases it is those products, with no
    # entry between the +1 and -1 halves
    half = np.array([0.4, 2.1])[:n_sites // 2]
    disorder = np.zeros(n_sites) if kind == "zero" else np.r_[half, [1.3] * (n_sites % 2),
                                                              half[::-1]]
    cfg = SpinNetworkConfig(n_sites=n_sites, gamma=0.07, disorder=disorder)
    assert reflection_symmetric(cfg.disorder)
    parts, sectors = _segment_blocks(cfg)
    for key, block in floquet_2T_sector_blocks(cfg).items():
        products = [segment @ flipped
                    for segment, flipped in zip(parts[key], _flip_image(parts, sectors, *key))]
        for got, want in zip(parity_halves(block, n_sites, *key), products, strict=True):
            assert np.abs(got - want).max(initial=0.0) <= 1e-13, key
        bases = _part_bases(n_sites, *key, True)  # V+^T B V- and V-^T B V+ are zero
        for (first, second, a, b), (to_first, to_second, to_a, to_b) in (bases, bases[::-1]):
            columns = block[:, first] * a + block[:, second] * b
            cross = to_a[:, None] * columns[to_first] + to_b[:, None] * columns[to_second]
            assert not cross.any(), key


@given(perfect_pulse_configs(kinds=("palindromic", "zero")))
def test_split_segment_exponentials_match_brute_force(cfg):
    # with palindromic disorder every exponential runs on the two reflection
    # parity halves of its generator and the block is put back from them;
    # the brute-force blocks are exponentiated whole from the dense
    # Liouvillian.  The split drops the cross-parity part V+^T G V- of each
    # generator, so that part must be zero.
    n = cfg.n_sites
    assert reflection_symmetric(cfg.disorder) and n <= 4
    direct = brute_force_segment_blocks(hamiltonian_interaction(cfg), cfg)
    for (kl, kr), block in joined_segment_blocks(cfg)[0].items():
        want = to_hermitian_basis(direct[(kl, kr)]) if kl == kr else direct[(kl, kr)]
        assert np.abs(block - want).max() < 1e-12, (kl, kr)
    for kl, kr in direct:
        gen = kronecker_segment_generator(cfg, kl, kr)
        if kl == kr:
            gen = to_hermitian_basis(gen)
        source, sign = pair_reflection(n, kl, kr)
        P = np.zeros(gen.shape)
        P[np.arange(len(source)), source] = sign
        w, U = np.linalg.eigh(P)
        plus, minus = U[:, w > 0], U[:, w < 0]
        cross = np.abs(plus.T @ gen @ minus).max(initial=0.0)
        assert cross <= 1e-12 * max(1.0, np.abs(gen).max()), (kl, kr)


def test_sector_eigenvalues_refuses_blocks_without_the_symmetries():
    # every block of an orbit shares its spectrum, so only the representatives
    # are taken; a dict of all (N + 1)^2 blocks is refused at the first other key
    cfg = random_config(3, 0.07)
    with pytest.raises(ValueError, match=r"block \(1, 0\) is not an orbit representative"):
        sector_eigenvalues(brute_force_2T_blocks(cfg), cfg)


@pytest.mark.parametrize("n_sites", range(1, 9))
@pytest.mark.parametrize("diagonal", [False, True])
def test_orbits_partition_the_sector_pairs(n_sites, diagonal):
    pairs = [(kl, kr) for kl in range(n_sites + 1) for kr in range(n_sites + 1)]
    wanted = [(kl, kr) for kl, kr in pairs if kl == kr or not diagonal]
    orbits = sector_orbits(n_sites, diagonal)
    members = [key for orbit in orbits.values() for key in orbit]
    assert sorted(members) == wanted  # every pair exactly once
    n = n_sites
    for (kl, kr), orbit in orbits.items():
        assert kl <= kr and kl + kr <= n
        unswapped = {(kl, kr), (n - kl, n - kr)}
        assert set(orbit) == unswapped | {(kr, kl), (n - kr, n - kl)}
        # conjugated exactly where only a relation with the swap reaches the member
        assert all(orbit[key] == (key not in unswapped) for key in orbit)
    # block (kl, kr) has one rate per element of a C(N, kl) x C(N, kr) matrix
    size = [comb(n, k) for k in range(n + 1)]
    rates = sum(size[kl] * size[kr] for orbit in orbits.values() for kl, kr in orbit)
    assert rates == (sum(c**2 for c in size) if diagonal else 4**n)


def test_sweep_builds_each_distinct_realization_once(monkeypatch):
    calls = []
    original = dtcsim.spectra.floquet_2T_sector_blocks

    def counted(config, diagonal=False):
        calls.append(config)
        return original(config, diagonal)

    monkeypatch.setattr(dtcsim.spectra, "floquet_2T_sector_blocks", counted)
    cfg = SpinNetworkConfig(n_sites=3, j0=0.9)
    result = disorder_gap_sweep(SweepSpec(config=cfg, w_values=(0.0,), n_realizations=3))
    assert len(calls) == 1
    assert np.all(result.gaps == result.gaps[0, 0])
    assert result.failures == ()

    calls.clear()
    result = disorder_gap_sweep(SweepSpec(config=cfg, w_values=(0.0, 2.0), n_realizations=3))
    assert len(calls) == 4
    assert len(set(calls)) == 4
