"""Block-propagator stepping against stepping with the dense one-period map."""

import tracemalloc
from dataclasses import replace
from math import ceil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dtcsim import (
    InitialStateSpec,
    SpinNetworkConfig,
    build_initial_state,
    floquet_map,
    hamiltonian_kick,
    ode_oracle_evolve,
    run_stroboscopic,
)
from dtcsim.experiments import CHUNK_PERIODS, TRACE_TOL, StateInvariantError
from dtcsim.floquet import (
    _coordinate_layout,
    _joined,
    _kick_folds,
    _part_bases,
    _signed_map,
    block_propagator,
    kick_unitary,
)
from dtcsim.operators import (
    excitation_sectors,
    hamiltonian_interaction,
    kron_all,
    sample_disorder,
)
from dtcsim.superop import reflection_symmetric
from helpers import (
    per_period_run,
    perfect_pulse_configs,
    recorded_exponentials,
    to_hermitian_basis,
)

OBSERVABLES = ("magnetization", "negativity", "purity", "excitations")


def _max_trace_difference(a, b):
    return max(np.abs(getattr(a, name) - getattr(b, name)).max() for name in OBSERVABLES)


def test_default_run_matches_dense_map_trace(seeded_state, default_config, default_trace):
    # default_trace steps the dense 4096^2 Phi_T; the default route is blockwise
    blockwise = run_stroboscopic(seeded_state, default_config, 201)
    assert _max_trace_difference(blockwise, default_trace) < 1e-12


@pytest.mark.parametrize("gamma", [0.0, 0.07])
@pytest.mark.parametrize("n_sites", [1, 2, 3])
def test_small_n_block_stepping_matches_dense_map(n_sites, gamma):
    # imperfect kick, unequal segments and disorder; N = 1 has no coupling pairs
    cfg = SpinNetworkConfig(n_sites=n_sites, epsilon=0.05, t1=0.3, t2=0.7, gamma=gamma,
                            disorder=np.linspace(0.4, 1.9, n_sites))
    rho0 = build_initial_state(
        InitialStateSpec(kind="pure_pattern", pattern="+1+"[:n_sites]), n_sites)
    phi = floquet_map(cfg).matrix
    prop = block_propagator(cfg)
    rho, vec = rho0, rho0.reshape(-1)
    for _ in range(12):
        rho, vec = prop.apply(rho), phi @ vec
        assert np.abs(rho - vec.reshape(cfg.dim, cfg.dim)).max() < 1e-12
    blockwise = run_stroboscopic(rho0, cfg, 12)
    dense = run_stroboscopic(rho0, cfg, 12, dynamical_map=floquet_map(cfg))
    assert _max_trace_difference(blockwise, dense) < 1e-12


def test_block_propagator_applies_every_sector_pair():
    # only the blocks with kl <= kr are held; apply writes each (kr, kl)
    # sub-matrix as the adjoint of the (kl, kr) one.  A diagonal block is
    # real, in the Hermitian basis: 8 bytes per entry against 16.  The
    # disorder is no palindrome, so each block is held whole, as one part
    cfg = SpinNetworkConfig(n_sites=3, disorder=np.array([0.3, 0.0, 0.7]))
    prop = block_propagator(cfg)
    assert list(prop.blocks) == [(kl, kr) for kl in range(4) for kr in range(kl, 4)]
    assert all(len(parts) == 1 for parts in prop.blocks.values())
    sizes = [len(s) for s in prop.sectors]
    assert sum(parts[0].nbytes for parts in prop.blocks.values()) == sum(
        (sizes[kl] * sizes[kr]) ** 2 * (8 if kl == kr else 16) for kl, kr in prop.blocks)


def _whole_complex(prop, k):
    """Diagonal block (k, k) of ``prop``, put back from its parity halves
    and made complex, for a corruption that need not keep the parity."""
    return _joined(prop.blocks[(k, k)], prop.sectors, k, k).astype(complex)


def test_corrupted_block_breaks_hermiticity_check():
    # an off-diagonal output is the adjoint of its partner by construction,
    # and a real diagonal block maps Hermitian-basis coordinates, so only a
    # complex diagonal block, applied as given, can break Hermiticity: a
    # phase on the row of Re X[0, 1] of sector 1 makes X[1, 0] differ from
    # conj(X[0, 1]) by 0.24 at period 1 and leaves the trace unchanged.  The
    # block is held whole, as one part
    cfg = SpinNetworkConfig(n_sites=2)
    prop = block_propagator(cfg)
    blocks = dict(prop.blocks)
    blocks[(1, 1)] = (_whole_complex(prop, 1),)
    blocks[(1, 1)][0][1] *= 1.0 + 0.5j
    step = replace(prop, blocks=blocks)
    rho0 = build_initial_state(InitialStateSpec(kind="pure_pattern", pattern="++"), 2)
    with pytest.raises(StateInvariantError) as expected:
        per_period_run(rho0, cfg, 3, step)
    with pytest.raises(StateInvariantError, match="Hermiticity violated by 2.402e-01") as got:
        run_stroboscopic(rho0, cfg, 3, dynamical_map=step)
    assert (got.value.period, str(got.value)) == (1, str(expected.value))


def test_trace_records_worst_margins():
    cfg = SpinNetworkConfig(n_sites=3, gamma=0.05, disorder=np.array([0.3, 0.0, 0.7]))
    rho0 = build_initial_state(InitialStateSpec(kind="pure_pattern", pattern="1+1"), 3)
    margins = run_stroboscopic(rho0, cfg, 20).worst_margins
    assert 0.0 <= margins.trace_error < 1e-12
    assert 0.0 <= margins.hermiticity_error < 1e-12
    assert -1e-12 < margins.min_eigenvalue <= 0.0  # the pure initial state has zeros


C = CHUNK_PERIODS
SMALL = SpinNetworkConfig(n_sites=3, gamma=0.05, disorder=np.array([0.3, 0.0, 0.7]))


def _small_state():
    return build_initial_state(InitialStateSpec(kind="pure_pattern", pattern="1+1"), 3)


def _trace_scaled(route, factor):
    """The one-period map of SMALL with its trace multiplied by ``factor``.

    On the block route every diagonal block (k, k) is scaled; the image then
    gains factor - 1 times the state's pinching onto the sectors, so it stays
    Hermitian and positive.  On the dense route the whole matrix is scaled.
    """
    if route == "dense":
        dense = floquet_map(SMALL)
        return replace(dense, matrix=dense.matrix * factor)
    prop = block_propagator(SMALL)
    return replace(prop, blocks={key: tuple(part * factor for part in parts)
                                 if key[0] == key[1] else parts
                                 for key, parts in prop.blocks.items()})


def test_chunked_run_matches_per_period_loop_at_defaults(seeded_state, default_config):
    # 201 records: 25 full chunks and one of a single period
    chunked = run_stroboscopic(seeded_state, default_config, 200)
    reference = per_period_run(seeded_state, default_config, 200,
                               block_propagator(default_config))
    assert _max_trace_difference(chunked, reference) < 1e-12
    assert chunked.worst_margins == reference.worst_margins


@pytest.mark.parametrize("route", ["blocks", "dense"])
@pytest.mark.parametrize("n_periods, period", [
    (3 * C, C + C // 2),            # inside the second chunk
    (3 * C, 2 * C - 1),             # on the last period of the second chunk
    (2 * C + C // 2, 2 * C + C // 2 - 1),  # in the final, partial chunk
], ids=["inside_chunk", "last_of_chunk", "partial_final_chunk"])
def test_first_invariant_failure_matches_per_period_loop(route, n_periods, period):
    # the trace grows by 1 + delta per period and first exceeds TRACE_TOL at
    # ``period``; Hermiticity and positivity hold throughout
    step = _trace_scaled(route, 1.0 + TRACE_TOL / (period - 0.5))
    with pytest.raises(StateInvariantError) as expected:
        per_period_run(_small_state(), SMALL, n_periods, step)
    with pytest.raises(StateInvariantError) as got:
        run_stroboscopic(_small_state(), SMALL, n_periods, dynamical_map=step)
    assert expected.value.period == period
    assert type(got.value) is StateInvariantError
    assert (got.value.period, str(got.value)) == (period, str(expected.value))


@pytest.mark.parametrize("route", ["blocks", "dense"])
def test_states_stepped_past_a_failure_raise_nothing(route):
    # period 1 fails the trace check at 1e200; the chunk steps on into inf
    # and nan, which must not surface as a RuntimeWarning (an error under
    # this suite's warning filter) or a LinAlgError
    step = _trace_scaled(route, 1e200)
    with pytest.raises(StateInvariantError) as expected:
        per_period_run(_small_state(), SMALL, 2 * C, step)
    with pytest.raises(StateInvariantError) as got:
        run_stroboscopic(_small_state(), SMALL, 2 * C, dynamical_map=step)
    assert (got.value.period, str(got.value)) == (1, str(expected.value))
    assert "trace deviates from 1 by 1.000e+200" in str(got.value)


@pytest.mark.parametrize("route", ["blocks", "dense"])
def test_map_producing_nan_fails_at_that_period(route):
    if route == "dense":
        dense = floquet_map(SMALL)
        matrix = dense.matrix.copy()
        matrix[0, 0] = np.nan
        step = replace(dense, matrix=matrix)
    else:
        prop = block_propagator(SMALL)
        blocks = dict(prop.blocks)
        blocks[(1, 1)] = (blocks[(1, 1)][0].copy(),)  # one part: no palindrome
        blocks[(1, 1)][0][0, 0] = np.nan
        step = replace(prop, blocks=blocks)
    with pytest.raises(StateInvariantError, match="non-finite") as err:
        run_stroboscopic(_small_state(), SMALL, C, dynamical_map=step)
    assert err.value.period == 1


def test_complex_magnetization_fails_at_its_period():
    # a phase of 4e-10 on row 0 of block (1, 1), the Hermitian-basis row of
    # the population of |01>, makes that population complex; the next step
    # reads only the Hermitian part, so the imaginary part is 4e-10 times
    # the population of that period.  At period 3 the state still passes
    # every invariant check (Hermiticity error 2.6e-10 < HERM_TOL) but its
    # magnetization carries an imaginary residue of 1.3e-10, above the
    # 1e-10 bound.  The block is held whole, as one part
    cfg = SpinNetworkConfig(n_sites=2)
    prop = block_propagator(cfg)
    blocks = dict(prop.blocks)
    blocks[(1, 1)] = (_whole_complex(prop, 1),)
    blocks[(1, 1)][0][0] *= 1.0 + 4e-10j
    step = replace(prop, blocks=blocks)
    rho0 = build_initial_state(InitialStateSpec(kind="pure_pattern", pattern="1+"), 2)
    with pytest.raises(StateInvariantError) as expected:
        per_period_run(rho0, cfg, 3, step)
    with pytest.raises(StateInvariantError, match="imaginary residue above 1e-10") as got:
        run_stroboscopic(rho0, cfg, 3, dynamical_map=step)
    assert (got.value.period, str(got.value)) == (3, str(expected.value))


@st.composite
def partial_support_runs(draw):
    """A config of perfect_pulse_configs, at epsilon 0 or 0.05, and a mixture
    of one or two random kets, each on a random set of excitation sectors."""
    cfg = replace(draw(perfect_pulse_configs()), epsilon=draw(st.sampled_from([0.0, 0.05])))
    n, sectors = cfg.n_sites, excitation_sectors(cfg.n_sites)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rho = np.zeros((cfg.dim, cfg.dim), dtype=complex)
    for _ in range(draw(st.integers(1, 2))):
        psi = np.zeros(cfg.dim, dtype=complex)
        for k in draw(st.sets(st.integers(0, n), min_size=1)):
            psi[sectors[k]] = rng.normal(size=len(sectors[k])) + 1j * rng.normal(size=len(sectors[k]))
        rho += rng.uniform(0.1, 1.0) * np.outer(psi, psi.conj()) / np.vdot(psi, psi).real
    return cfg, rho / np.trace(rho).real


@given(partial_support_runs())
def test_reachable_pair_stepping_matches_dense_map(run):
    cfg, rho0 = run
    blockwise = run_stroboscopic(rho0, cfg, 6)
    dense = run_stroboscopic(rho0, cfg, 6, dynamical_map=floquet_map(cfg))
    assert _max_trace_difference(blockwise, dense) < 1e-12
    if cfg.epsilon == 0.0:
        # the pi kick sends sector pair (kl, kr) to (N - kl, N - kr), and the
        # segment keeps it: the state stays exactly zero off those pairs
        n, sectors = cfg.n_sites, excitation_sectors(cfg.n_sites)
        pairs = [(a, b) for a in range(n + 1) for b in range(n + 1)]
        support = {(a, b) for a, b in pairs if rho0[np.ix_(sectors[a], sectors[b])].any()}
        outside = np.ones((cfg.dim, cfg.dim), dtype=bool)
        for a, b in support | {(n - a, n - b) for a, b in support}:
            outside[np.ix_(sectors[a], sectors[b])] = False
        prop, rho = block_propagator(cfg, rho0), rho0
        for _ in range(6):
            rho = prop.apply(rho)
            assert not rho[outside].any()


# 2 C + 3 periods: two chunk boundaries, across which a perfect pulse keeps
# its coordinates, and a partial final chunk
@settings(max_examples=25)
@given(partial_support_runs())
def test_chunk_route_matches_the_dense_map_period_by_period(run):
    cfg, rho0 = run
    rho0 = (rho0 + rho0.conj().T) / 2.0
    n_periods = 2 * C + 3
    phi = floquet_map(cfg)
    stacks = list(block_propagator(cfg, rho0).trajectory(rho0, n_periods + 1, C))
    assert [len(states) for states in stacks] == [C, C, 4]
    rho = rho0
    for n, state in enumerate(np.concatenate(stacks)):
        assert np.abs(state - rho).max() < 1e-12, n
        rho = phi.apply(rho)
    blockwise = run_stroboscopic(rho0, cfg, n_periods)
    dense = run_stroboscopic(rho0, cfg, n_periods, dynamical_map=phi)
    assert _max_trace_difference(blockwise, dense) < 1e-12
    assert blockwise.worst_margins.hermiticity_error == 0.0


def _dense_parity_bases(sectors, kl, kr):
    """V = [V+ V-], the parity bases of pair (kl, kr) as the columns of one
    matrix, and the number of +1 columns."""
    bases = _part_bases(len(sectors) - 1, kl, kr, True)
    d = len(sectors[kl]) * len(sectors[kr])
    V, column = np.zeros((d, d)), 0
    for first, second, a, b in bases:
        columns = column + np.arange(len(first))
        V[first, columns] += a
        V[second, columns] += b
        column += len(first)
    return V, len(bases[0][0])


def _dense_kick(cfg, sectors, kl, kr):
    """K with y' = K y (K conj(y) for kl < kr): the perfect pi pulse
    X^(x)N rho X^(x)N on the coordinates of pair (kl, kr), read on those of
    (N - kr, N - kl), through the adjoint for kl < kr, built on dense unit
    matrices with no index reversal."""
    n = cfg.n_sites
    X = kron_all([np.array([[0.0, 1.0], [1.0, 0.0]])] * n)
    il, ir, jl, jr = sectors[kl], sectors[kr], sectors[n - kr], sectors[n - kl]
    units = np.zeros((len(il) * len(ir), cfg.dim, cfg.dim))
    for column, (x, y) in enumerate(np.ndindex(len(il), len(ir))):
        units[column, il[x], ir[y]] = 1.0
    kicked = X @ units @ X
    if kl < kr:
        kicked = kicked.conj().transpose(0, 2, 1)
    K = kicked[:, jl[:, None], jr[None, :]].reshape(len(units), -1).T
    return to_hermitian_basis(K).real if kl == kr else K


@pytest.mark.parametrize("cfg", [
    SpinNetworkConfig(n_sites=4), SpinNetworkConfig(n_sites=5), SpinNetworkConfig(n_sites=6),
    SpinNetworkConfig(n_sites=4, disorder=np.array([0.4, 2.1, 2.1, 0.4])),
    SpinNetworkConfig(n_sites=5, disorder=np.array([0.4, 2.1, 1.3, 2.1, 0.4])),
], ids=["4", "5", "6", "4-palindrome", "5-palindrome"])
def test_kick_is_a_signed_permutation_between_parity_bases(cfg):
    # the map that the reversal gather applies: V'^T K V between the
    # parity bases of each pair and of its image is one +-1 per row,
    # orthogonal, with no entry between the +1 and -1 halves, and it is
    # the signed permutation of _kick_folds; held whole, V = V' = 1
    n, sectors = cfg.n_sites, excitation_sectors(cfg.n_sites)
    assert reflection_symmetric(cfg.disorder)
    for kl, kr in [(kl, kr) for kl in range(n + 1) for kr in range(kl, n + 1)]:
        K = _dense_kick(cfg, sectors, kl, kr)
        for split in (False, True):
            if split:
                V, plus = _dense_parity_bases(sectors, kl, kr)
                W, image_plus = _dense_parity_bases(sectors, n - kr, n - kl)
            else:
                V = W = np.eye(len(K))
                plus = image_plus = len(K)
            Q = W.T @ K @ V
            assert plus == image_plus, (kl, kr)
            entry = np.abs(Q) > 1e-12
            assert np.array_equal(entry.sum(axis=1), np.ones(len(Q))), (kl, kr)
            assert np.abs(np.abs(Q[entry]) - 1.0).max() <= 1e-15, (kl, kr)
            assert np.abs(Q @ Q.T - np.eye(len(Q))).max() <= 1e-15, (kl, kr)
            assert not entry[:plus, plus:].any() and not entry[plus:, :plus].any(), (kl, kr)
            folds = _kick_folds(n, kl, kr, split=split)
            assert len(folds) == 1 + split
            for (source, sign), rows in zip(folds, (slice(0, plus), slice(plus, None))):
                half = Q[rows, rows]
                if not len(half):
                    continue  # a 1 x 1 block has no -1 half
                assert np.array_equal(np.argmax(np.abs(half), axis=1), source), (kl, kr, split)
                assert np.array_equal(np.sign(half[np.arange(len(half)), source]), sign), \
                    (kl, kr, split)


def test_a_map_that_leaves_the_sectors_is_no_signed_permutation():
    # swapping |00> and |01> moves entries between sector pairs, so
    # coordinates of pair (0, 1) read the Hermitian-basis combinations of
    # pair (1, 1); a mirror of the sites keeps every pair.  At one site,
    # rho -> rho[0, 0] everywhere reads whole values only, but all three
    # coordinates read the first
    def layout(n):
        pairs = {(kl, kr): False for kl in range(n + 1) for kr in range(kl, n + 1)}
        return _coordinate_layout(pairs, excitation_sectors(n), {})

    source, sign = _signed_map(layout(2), np.array([0, 2, 1, 3]))
    assert np.array_equal(np.sort(source), np.arange(len(source)))
    for n, order in ((2, [1, 0, 2, 3]), (1, [0, 0])):
        with pytest.raises(ValueError, match="not a signed permutation of the coordinates"):
            _signed_map(layout(n), np.array(order))


def test_a_split_pair_whose_kick_image_is_whole_is_refused():
    # zero disorder splits every pair; pair (0, 1) is kicked into (2, 3),
    # which held whole reads (e_i +- e_j) / sqrt2 of the two parity bases
    prop = block_propagator(SpinNetworkConfig(n_sites=3))
    blocks = dict(prop.blocks)
    assert len(blocks[(0, 1)]) == len(blocks[(2, 3)]) == 2
    blocks[(2, 3)] = (_joined(blocks[(2, 3)], prop.sectors, 2, 3),)
    with pytest.raises(ValueError, match="not a signed permutation of the coordinates"):
        replace(prop, blocks=blocks)


def test_a_kick_without_the_block_of_every_pair_is_refused():
    # U1 mixes the sectors, so a kicked state can reach any pair
    cfg = SpinNetworkConfig(n_sites=3, epsilon=0.05)
    prop = block_propagator(cfg)
    assert prop.kick is not None and len(prop.blocks) == 10
    blocks = dict(prop.blocks)
    del blocks[(1, 2)]
    with pytest.raises(ValueError, match=r"every sector pair, and \(1, 2\) is missing"):
        replace(prop, blocks=blocks)
    with pytest.raises(ValueError, match=r"\(0, 0\) is missing"):
        replace(prop, blocks={}, kick=kick_unitary(cfg))
    replace(prop, blocks={}, kick=None)  # a perfect pulse may hold any pairs


@given(perfect_pulse_configs(), st.sampled_from([0.0, 0.05]), st.integers(0, 2**32 - 1))
def test_every_pair_propagator_preserves_trace_and_hermiticity(cfg, epsilon, seed):
    # a Hermitian input that is not positive, shifted so that its lowest
    # eigenvalue is -1: apply writes each (kr, kl) sub-matrix as the adjoint
    # of the (kl, kr) one, so only the diagonal blocks can break Hermiticity
    cfg = replace(cfg, epsilon=epsilon)
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=(cfg.dim, cfg.dim)) + 1j * rng.normal(size=(cfg.dim, cfg.dim))
    rho = raw + raw.conj().T
    rho -= (np.linalg.eigvalsh(rho)[0] + 1.0) * np.eye(cfg.dim)
    out = block_propagator(cfg).apply(rho)
    scale = np.abs(rho).max()
    assert abs(np.trace(out) - np.trace(rho)) <= 1e-12 * scale
    assert np.abs(out - out.conj().T).max() <= 1e-12 * scale


@given(partial_support_runs())
def test_block_route_states_are_exactly_hermitian(run):
    # each off-diagonal output is written as the adjoint of its partner, and
    # each diagonal one from real Hermitian-basis coordinates, so every
    # stepped state is Hermitian to the last bit, kicked by U1 or reversed;
    # a fused multiply-add can leave 1e-17 on the drawn state's diagonal, so
    # the initial state is made Hermitian first
    cfg, rho0 = run
    rho0 = (rho0 + rho0.conj().T) / 2.0
    assert run_stroboscopic(rho0, cfg, 6).worst_margins.hermiticity_error == 0.0


#: Configs of at most three sites, at epsilon 0 or 0.05, for the checks of
#: the one-period map that build it on every input.
small_configs = st.builds(lambda cfg, epsilon: replace(cfg, epsilon=epsilon),
                          perfect_pulse_configs().filter(lambda cfg: cfg.n_sites <= 3),
                          st.sampled_from([0.0, 0.05]))


@given(small_configs)
def test_every_pair_propagator_is_completely_positive(cfg):
    # the Choi matrix sum_ij |i><j| (x) Phi(|i><j|), with apply, whose input
    # must be Hermitian, taking |i><j| = A + iB as Phi(A) + i Phi(B)
    prop, d = block_propagator(cfg), cfg.dim
    images = np.empty((d, d, d, d), dtype=complex)
    for i in range(d):
        for j in range(d):
            unit = np.zeros((d, d), dtype=complex)
            unit[i, j] = 1.0
            real, imag = (unit + unit.T) / 2.0, (unit - unit.T) / 2.0j
            images[i, j] = prop.apply(real) + 1j * prop.apply(imag)
    choi = images.transpose(0, 2, 1, 3).reshape(d * d, d * d)
    spectrum = np.linalg.eigvalsh(choi)
    assert spectrum[0] >= -1e-12 * spectrum[-1]


@st.composite
def oracle_runs(draw, configs=small_configs):
    """A config of ``configs`` with t1 moved to a multiple of T / 20
    (t1 != t2 kept, g following the pi-pulse condition), a random density
    matrix, and an RK4 step that divides both segments, with |z| <= 0.03
    for every eigenvalue z of the generator times the step."""
    cfg = draw(configs)
    period = cfg.period
    twentieths = round(20.0 * cfg.t1 / period)
    if twentieths == 10:
        twentieths += 1 if cfg.t1 > cfg.t2 else -1
    t1 = twentieths * period / 20.0
    cfg = replace(cfg, t1=t1, t2=period - t1, g=np.pi / (2.0 * t1))
    rate = max(2.0 * np.abs(hamiltonian_kick(cfg)).sum(axis=1).max(),
               2.0 * np.abs(hamiltonian_interaction(cfg)).sum(axis=1).max()
               + 2.0 * cfg.gamma * cfg.n_sites)
    # steps per T / 20: even, for the step-doubling check, and at least the
    # default's 100; rate * dt <= 1.2 / 40 = 0.03
    steps = 2 * max(50, ceil(rate * period / 1.2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    raw = rng.normal(size=(cfg.dim, cfg.dim)) + 1j * rng.normal(size=(cfg.dim, cfg.dim))
    rho = raw @ raw.conj().T
    return cfg, rho / np.trace(rho).real, period / (20.0 * steps)


def _matches_rk4_over_one_period(cfg, rho, dt):
    # the kick and the segment integrated from the master equation, with no
    # sector blocks, no Hermitian basis and no matrix exponential
    via_ode = ode_oracle_evolve(rho, cfg, 1, dt=dt)
    assert np.abs(block_propagator(cfg).apply(rho) - via_ode).max() < 1e-6


@settings(max_examples=10)
@given(oracle_runs())
def test_every_pair_propagator_matches_rk4_over_one_period(run):
    _matches_rk4_over_one_period(*run)


four_site_configs = st.builds(lambda cfg, epsilon: replace(cfg, epsilon=epsilon),
                              perfect_pulse_configs().filter(lambda cfg: cfg.n_sites == 4),
                              st.sampled_from([0.0, 0.05]))


# six draws reach gamma = 50 at both epsilon, at up to 21440 RK4 steps per period
@settings(max_examples=6)
@given(oracle_runs(four_site_configs))
def test_every_pair_propagator_matches_rk4_over_one_period_at_four_sites(run):
    _matches_rk4_over_one_period(*run)


def test_default_run_steps_the_pairs_its_state_reaches(seeded_state, default_config,
                                                      monkeypatch):
    # 111+++ has weight in sectors 3..6 and its kicked images in 0..3: 31 of
    # the 49 pairs, 19 stored with kl <= kr, and 10 of them are spin-flip
    # orbit representatives; the kick takes no exponential.  Zero disorder is
    # a palindrome, so each of the 10 is exponentiated as its two
    # chain-reflection parity halves, largest block first, and the 1 x 1
    # block (0, 0) as its one +1 half
    generators, prop = recorded_exponentials(monkeypatch, default_config, seeded_state)
    assert prop.kick is None
    assert list(prop.blocks) == [(kl, kr) for kl in range(7) for kr in range(kl, 7)
                                 if max(kl, kr) <= 3 or min(kl, kr) >= 3]
    assert prop.exponentiated == 10
    # (3, 3), (2, 3), (2, 2), (1, 3), (1, 2), (1, 1), (0, 3), (0, 2), (0, 1), (0, 0)
    halves = [(200, 200), (150, 150), (117, 108), (60, 60), (45, 45), (18, 18), (10, 10),
              (9, 6), (3, 3), (1,)]
    assert [sum(pair) for pair in halves] == [400, 300, 225, 120, 90, 36, 20, 15, 6, 1]
    assert [A.shape for A in generators] == [(d, d) for pair in halves for d in pair]
    assert sum(1 if kl == kr else 2 for kl, kr in prop.blocks) == 31
    # the halves are what is held and stepped, never a whole block: 36
    # non-empty halves (the 1 x 1 blocks (0, 0) and (6, 6) have no -1 half)
    assert all(len(parts) == 2 for parts in prop.blocks.values())
    stepped = [part for parts in prop.blocks.values() for part in parts if len(part)]
    assert len(stepped) == 36
    assert max(len(part) for part in stepped) == 200
    assert not any(len(part) == 400 for part in stepped)


def test_the_step_holds_only_the_bytes_the_manifest_reports(seeded_state, default_config):
    # at generic disorder every block is held whole and none is its own
    # spin flip; besides the parts that the evolve manifest counts in
    # stepped_bytes the propagator keeps only index arithmetic: the
    # coordinate layout and the reversal gather
    cfg = replace(default_config, disorder=sample_disorder(6, np.pi / default_config.period, 0))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        prop = block_propagator(cfg, seeded_state)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    stepped = [part for parts in prop.blocks.values() for part in parts if len(part)]
    stepped_bytes = sum(part.nbytes for part in stepped)
    # the manifest's numerics of evolve --w-t-over-2pi 0.5
    assert (len(stepped), max(len(part) for part in stepped), stepped_bytes) == (19, 400, 5731904)
    assert kept < 1.25 * stepped_bytes


def test_apply_refuses_a_state_outside_its_pairs(seeded_state, default_config):
    prop = block_propagator(default_config, seeded_state)
    everywhere = build_initial_state(InitialStateSpec(kind="pure_pattern", pattern="++++++"), 6)
    # the kick sends the weight of ++++++ in pair (6, 2) to (0, 4)
    with pytest.raises(ValueError, match=r"sector pair \(0, 4\), for which this propagator "
                                         r"holds no block"):
        prop.apply(everywhere)
    with pytest.raises(ValueError, match=r"sector pair \(0, 4\)"):
        run_stroboscopic(everywhere, default_config, 1, dynamical_map=prop)
    # every pair is held without a state, or when the kick mixes sectors
    for prop in (block_propagator(default_config),
                 block_propagator(replace(default_config, epsilon=0.05), seeded_state)):
        assert len(prop.blocks) == 28
        prop.apply(everywhere)
