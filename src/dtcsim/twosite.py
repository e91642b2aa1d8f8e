"""Exact two-site results: effective coupling under disorder and the gap.

For two coupled spins the double-period unitary restricted to the
one-excitation subspace {|10>, |01>} is a product of two SU(2) rotations
with axes (2*j0, 0, -w)/omega and (2*j0, 0, +w)/omega, omega^2 = (2*j0)^2
+ w^2, each through the angle omega * t2.  Composing them with the SU(2)
group law gives the effective Hamiltonian in closed form; its off-diagonal
element K is the effective hopping, and |K| = Theta / (2 T) with Theta the
composed rotation angle.  Dephasing wins once |K| drops below gamma, which
happens in narrow windows around the zeros of sin(omega * t2) whose edges
are the gamma crossings of |K|.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .floquet import matrix_exp, principal_log_hamiltonian
from .operators import SpinNetworkConfig
from .spectra import GapResult, sector_gap

_SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

#: Grid points of the |K|(w) scan that brackets the gamma crossings.
CROSSING_SCAN_POINTS = 8192


@dataclass(frozen=True)
class TwoSiteEffective:
    """Effective double-period Hamiltonian data in the one-excitation basis.

    ``coupling`` is the complex off-diagonal element K; ``branch_flag``
    marks points where an eigenphase of the double-period rotation sits on
    the +-pi branch cut and the phase of K is therefore undefined.
    """

    eps0: float
    eps1: float
    coupling: complex
    branch_flag: bool = False

    @property
    def coupling_magnitude(self) -> float:
        return abs(self.coupling)


def analytic_effective_coupling(j0: float, w: float, t2: float) -> TwoSiteEffective:
    """Closed-form effective coupling from the SU(2) composition law.

    Exact for every disorder gap w; |K| = j0 at w = 0 and falls off like
    2 j0 |sin(w t2)| / (w T) for strong disorder.  The removable singularity
    where the composed rotation angle vanishes (the dips of |K|) is resolved
    by its limit K -> 0.
    """
    if j0 <= 0 or t2 <= 0 or w < 0:
        raise ValueError("require j0 > 0, t2 > 0 and w >= 0")
    period = 2.0 * t2
    omega = np.hypot(2.0 * j0, w)
    phi = omega * t2
    cos_theta = 1.0 - 2.0 * (2.0 * j0 / omega) ** 2 * np.sin(phi) ** 2
    theta = float(np.arccos(np.clip(cos_theta, -1.0, 1.0)))
    sin_theta = np.sin(theta)

    # axis * sin(theta) of the composed rotation; z component vanishes
    vx = 4.0 * j0 * np.sin(phi) * np.cos(phi) / omega
    vy = -4.0 * j0 * w * np.sin(phi) ** 2 / omega**2

    if sin_theta < 1e-12:
        if theta > np.pi / 2.0:  # antipodal rotation: phase of K undefined
            return TwoSiteEffective(0.0, 0.0, complex(theta / (2.0 * period)),
                                    branch_flag=True)
        return TwoSiteEffective(0.0, 0.0, 0.0j)
    coupling = (theta / (2.0 * period * sin_theta)) * (vx - 1j * vy)
    return TwoSiteEffective(0.0, 0.0, complex(coupling))


def two_site_numeric_coupling(j0: float, w: float, t2: float) -> TwoSiteEffective:
    """Effective coupling from the principal log of the double-period rotation.

    Builds the one-excitation block of the squared Floquet operator
    directly (disorder gap w carried by the second site) and reads off the
    effective Hamiltonian as (i / 2T) log.  Cross-validates the analytic
    route to better than 1e-8 away from branch-flagged points.
    """
    if j0 <= 0 or t2 <= 0 or w < 0:
        raise ValueError("require j0 > 0, t2 > 0 and w >= 0")
    period = 2.0 * t2
    f2 = matrix_exp(-1j * (2.0 * j0 * _SX - w * _SZ) * t2) @ matrix_exp(
        -1j * (2.0 * j0 * _SX + w * _SZ) * t2
    )
    h_eff, on_cut = principal_log_hamiltonian(f2, 2.0 * period)
    return TwoSiteEffective(
        eps0=float(h_eff[0, 0].real),
        eps1=float(h_eff[1, 1].real),
        coupling=complex(h_eff[0, 1]),
        branch_flag=on_cut,
    )


def critical_disorder_estimate(j0: float, gamma: float, t2: float) -> float:
    """Rough closed-form estimate of where |K| first falls to gamma.

    Locates the edge of the first dip of |K| near w = pi / t2; a rough
    bound that lands within ~15% of the first numerical gamma crossing at
    the default parameters.
    """
    if j0 <= 0 or gamma < 0 or t2 <= 0:
        raise ValueError("require positive j0, t2 and gamma >= 0")
    return (np.pi / t2) * (1.0 - gamma / (2.0 * j0 + gamma))


def coupling_gamma_crossings(j0: float, gamma: float, t2: float) -> np.ndarray:
    """All disorder strengths where |K|(w) crosses gamma from above.

    The scan covers w * t2 / 2pi in [0, pi] (the window in which the two-site
    transition is studied) on CROSSING_SCAN_POINTS points; each bracket is
    bisected to float resolution, and its end where |K| <= gamma is the
    crossing.  The first entry is the edge of the first dip (what the rough
    closed-form estimate targets); the last entry is the transition visible
    at the upper end of the window, near w / j0 of about 29 for the default
    drive parameters.
    """
    def excess(w):
        return analytic_effective_coupling(j0, w, t2).coupling_magnitude - gamma

    grid = np.linspace(1e-9, 2.0 * np.pi**2 / t2, CROSSING_SCAN_POINTS)
    f = np.array([excess(w) for w in grid])
    roots = []
    for i in np.flatnonzero((f[:-1] > 0) & (f[1:] <= 0)):
        lo, hi = grid[i], grid[i + 1]
        while lo < (mid := (lo + hi) / 2.0) < hi:
            lo, hi = (mid, hi) if excess(mid) > 0 else (lo, mid)
        roots.append(hi)
    return np.array(roots)


def two_site_config(j0: float, gamma: float, t2: float, w: float) -> SpinNetworkConfig:
    """Two-spin network with the disorder gap w carried by the second site."""
    return SpinNetworkConfig(
        n_sites=2,
        j0=j0,
        alpha=1.0,
        g=np.pi / (2.0 * t2),
        epsilon=0.0,
        t1=t2,
        t2=t2,
        gamma=gamma,
        disorder=np.array([0.0, w]),
    )


def two_site_gap_curve(j0: float, gamma: float, t2: float, w_values) -> list[GapResult]:
    """Liouvillian gap of the two-site model for each disorder strength.

    Each gap comes from :func:`dtcsim.spectra.sector_gap`, as every gap in
    production does.  The gap sits at the dephasing plateau while |K|
    exceeds gamma and collapses inside the dip windows where it does not.
    """
    return [sector_gap(two_site_config(j0, gamma, t2, w)) for w in w_values]
