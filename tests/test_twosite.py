"""Exact two-site effective coupling, crossings and gap curve."""

import numpy as np
import pytest
from scipy.optimize import brentq

from dtcsim import (
    analytic_effective_coupling,
    coupling_gamma_crossings,
    critical_disorder_estimate,
    eigendecompose,
    floquet_map_2T,
    liouvillian_gap,
    sector_gap,
    two_site_gap_curve,
    two_site_numeric_coupling,
)
from dtcsim.operators import SpinNetworkConfig
from dtcsim.twosite import CROSSING_SCAN_POINTS, two_site_config

J0 = 0.2 * 2 * np.pi   # j0 * T / 2pi = 0.2 with T = 1
T2 = 0.5
GAMMA = 0.02


def test_coupling_at_zero_disorder_is_j0():
    assert analytic_effective_coupling(J0, 0.0, T2).coupling_magnitude == \
        pytest.approx(J0, abs=1e-12)
    assert two_site_numeric_coupling(J0, 0.0, T2).coupling_magnitude == \
        pytest.approx(J0, abs=1e-12)


def test_analytic_and_numeric_routes_agree_on_window():
    w_grid = np.linspace(0.0, 2.0 * np.pi**2 / T2, 201)  # w*t2/2pi in [0, pi]
    worst = 0.0
    for w in w_grid:
        ka = analytic_effective_coupling(J0, w, T2)
        kn = two_site_numeric_coupling(J0, w, T2)
        if ka.branch_flag or kn.branch_flag:
            continue
        worst = max(worst, abs(ka.coupling_magnitude - kn.coupling_magnitude))
        worst = max(worst, abs(ka.coupling - kn.coupling))
    assert worst < 1e-8


def test_small_disorder_strictly_reduces_coupling():
    k = two_site_numeric_coupling(J0, 0.1, T2).coupling_magnitude
    assert k < J0


def test_coupling_decreases_quadratically_near_zero():
    w_values = np.array([0.01, 0.02, 0.05, 0.1])
    drops = np.array([
        J0 - analytic_effective_coupling(J0, w, T2).coupling_magnitude
        for w in w_values
    ])
    exponent = np.polyfit(np.log(w_values), np.log(drops), 1)[0]
    assert exponent == pytest.approx(2.0, abs=0.1)


def test_large_disorder_asymptotic_at_envelope_maxima():
    # compare on local maxima of |K| (omega * t2 at half-integer pi), where
    # the closed form 2 j0 |sin(w t2)| / (w T) is meaningful; at generic w
    # the omega-vs-w phase shift dominates the pointwise error
    period = 2.0 * T2
    for k in range(7, 14):
        omega = (k + 0.5) * np.pi / T2
        w = np.sqrt(omega**2 - (2 * J0) ** 2)
        if w < 20.0:
            continue
        exact = analytic_effective_coupling(J0, w, T2).coupling_magnitude
        approx = 2.0 * J0 * abs(np.sin(w * T2)) / (w * period)
        assert abs(exact - approx) / exact < 0.05


def test_branch_flag_at_antipodal_rotation():
    # 2 j0 t2 = pi/2 puts the composed rotation angle exactly at pi
    result = analytic_effective_coupling(np.pi / 2.0, 0.0, 0.5)
    assert result.branch_flag


def test_critical_estimate_limits():
    assert critical_disorder_estimate(J0, 0.0, T2) == pytest.approx(np.pi / T2)
    with pytest.raises(ValueError):
        critical_disorder_estimate(-1.0, GAMMA, T2)


def test_gamma_crossings_first_and_last():
    crossings = coupling_gamma_crossings(J0, GAMMA, T2)
    assert len(crossings) >= 2
    # the rough closed-form estimate targets the first dip edge
    estimate = critical_disorder_estimate(J0, GAMMA, T2)
    first = crossings[0]
    assert abs(estimate - first) / first < 0.15
    # the transition at the top of the studied window sits near w/j0 = 29
    assert crossings[-1] / J0 == pytest.approx(29.0, abs=2.0)


def test_gamma_crossings_match_brentq_on_their_brackets():
    # scipy's brentq on the scan bracket of each crossing is the reference;
    # the bisection lands within brentq's own tolerance of it (xtol 2e-12
    # plus rtol 4 eps, its defaults), on the float where |K| - gamma turns <= 0
    def excess(w):
        return analytic_effective_coupling(J0, w, T2).coupling_magnitude - GAMMA

    grid = np.linspace(1e-9, 2.0 * np.pi**2 / T2, CROSSING_SCAN_POINTS)
    crossings = coupling_gamma_crossings(J0, GAMMA, T2)
    assert len(crossings) == 6
    for w in crossings:
        k = np.searchsorted(grid, w)  # w lies in (grid[k - 1], grid[k]]
        assert excess(grid[k - 1]) > 0 >= excess(grid[k])
        assert excess(np.nextafter(w, 0.0)) > 0 >= excess(w)
        reference = brentq(excess, grid[k - 1], grid[k])
        assert abs(w - reference) <= 2e-12 + 4 * np.finfo(float).eps * abs(reference)


def test_gap_curve_plateau_below_first_crossing():
    first = coupling_gamma_crossings(J0, GAMMA, T2)[0]
    w_values = np.linspace(0.0, 0.95 * first, 5)
    gaps = two_site_gap_curve(J0, GAMMA, T2, w_values)
    for res in gaps:
        assert res.gap == pytest.approx(GAMMA, abs=1e-9)


def test_gap_curve_collapses_inside_final_dip():
    crossings = coupling_gamma_crossings(J0, GAMMA, T2)
    w_dip = crossings[-1] * 1.02  # just past the last down-crossing
    plateau, dipped = two_site_gap_curve(J0, GAMMA, T2, [0.0, w_dip])
    assert dipped.gap < 0.5 * plateau.gap


def test_gap_curve_no_gap_without_dephasing():
    for res in two_site_gap_curve(J0, 0.0, T2, [0.0, 5.0, 20.0]):
        assert res.gap is None


def test_two_site_plateau_matches_six_site_plateau():
    two_site = two_site_gap_curve(J0, GAMMA, T2, [0.0])[0].gap
    six_site = sector_gap(SpinNetworkConfig()).gap
    assert abs(two_site - six_site) / six_site < 0.10


@pytest.mark.parametrize("gamma", [GAMMA, 0.0])
def test_gap_curve_matches_the_dense_route(gamma):
    # the curve takes its gaps from the sector blocks; the eigendecomposition
    # of the dense 16 x 16 Phi_T^2 is the independent check, also inside the
    # dip windows, where the gap falls below the dephasing plateau
    crossings = coupling_gamma_crossings(J0, GAMMA, T2)
    w_values = np.concatenate([np.linspace(0.0, 2.0 * np.pi**2 / T2, 17),
                               crossings * 1.01, crossings * 1.02])
    curve = two_site_gap_curve(J0, gamma, T2, w_values)
    for w, fast in zip(w_values, curve):
        dense = liouvillian_gap(eigendecompose(floquet_map_2T(two_site_config(J0, gamma, T2, w))))
        assert fast.n_steady == dense.n_steady
        if gamma == 0.0:
            assert fast.gap is None and dense.gap is None
        else:
            assert fast.gap == pytest.approx(dense.gap, abs=1e-12)
    if gamma > 0.0:
        assert min(res.gap for res in curve) < 0.5 * gamma  # the grid reaches a dip
