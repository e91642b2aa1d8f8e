"""The network configuration, the drive Hamiltonians and the excitation sectors.

Conventions used throughout the package:

- basis ordering: site 0 is the leftmost tensor factor, so the computational
  basis index of |b_0 b_1 ... b_{N-1}> is sum_l b_l * 2^(N-1-l);
- |1> is the +1 eigenvector of sigma^z, so the excitation number operator
  counts |1> occupations and an all-|1> state has magnetization +1 everywhere;
- hbar = 1 and all rates/energies are expressed in units of 1/T, where
  T = T1 + T2 is the drive period (T = 1 with the default segment durations).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace

import numpy as np

#: Largest site count of the routes that form a dense 4^N x 4^N matrix.
DENSE_LIMIT = 6
#: Largest site count a SpinNetworkConfig accepts; the one-period sector
#: blocks of N = 8 would need about 1.7 GB, and all 81 blocks of Phi_2T 2.6 GB.
MAX_SITES = 7


def require_dense(n_sites: int) -> None:
    """Raise ValueError when a route forming a 4^N x 4^N matrix gets N > DENSE_LIMIT."""
    if n_sites > DENSE_LIMIT:
        raise ValueError(f"n_sites = {n_sites} exceeds the dense limit {DENSE_LIMIT} "
                         "of routes that form a 4^N x 4^N matrix")


def kron_all(factors) -> np.ndarray:
    """Kronecker product of a sequence of matrices, leftmost factor first."""
    out = np.array([[1.0 + 0.0j]])
    for f in factors:
        out = np.kron(out, f)
    return out


def coupling_matrix(n_sites: int, j0: float, alpha: float) -> np.ndarray:
    """Power-law coupling J[l, m] = j0 / |l - m|^alpha, zero on the diagonal.

    alpha = 0 gives an all-to-all network, large alpha nearest-neighbour only.
    """
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    idx = np.arange(n_sites)
    dist = np.abs(idx[:, None] - idx[None, :]).astype(float)
    with np.errstate(divide="ignore", invalid="ignore"):
        J = j0 / dist**alpha
    np.fill_diagonal(J, 0.0)
    return J


@dataclass(frozen=True)
class SpinNetworkConfig:
    """Drive and network parameters for the periodically kicked spin network.

    The drive alternates between a kick segment of duration ``t1`` generated
    by g(1-epsilon) sum_l sigma_l^x and an interaction segment of duration
    ``t2`` generated by the XY Hamiltonian plus on-site disorder.  Defaults
    give t1 = t2 = 1/2 with 2*g*t1 = pi (a perfect pi pulse), j0*T/2pi = 0.2,
    alpha = 1.51 and gamma*T = 0.02.

    ``disorder`` is stored as a read-only array; equality and hashing compare
    it by value, so equal configs can key a dict.
    """

    n_sites: int = 6
    j0: float = 0.2 * 2.0 * np.pi
    alpha: float = 1.51
    g: float = np.pi
    epsilon: float = 0.0
    t1: float = 0.5
    t2: float = 0.5
    gamma: float = 0.02
    disorder: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if not 1 <= self.n_sites <= MAX_SITES:
            raise ValueError(f"n_sites = {self.n_sites} is outside 1..{MAX_SITES}")
        if self.t1 <= 0 or self.t2 <= 0:
            raise ValueError("segment durations t1, t2 must be positive")
        if self.gamma < 0:
            raise ValueError("gamma must be >= 0")
        if self.epsilon < 0:
            raise ValueError("epsilon must be >= 0")
        if self.alpha < 0:
            raise ValueError("alpha must be >= 0")
        w = np.zeros(self.n_sites) if self.disorder is None else np.asarray(self.disorder, float)
        if w.shape != (self.n_sites,):
            raise ValueError(f"disorder must have length {self.n_sites}")
        if np.any(w < 0):
            raise ValueError("disorder entries must be >= 0")
        w = w.copy()
        w.flags.writeable = False
        object.__setattr__(self, "disorder", w)

    def _key(self) -> tuple:
        """Field values, the disorder vector as a tuple of its entries."""
        return tuple(tuple(self.disorder.tolist()) if f.name == "disorder"
                     else getattr(self, f.name) for f in fields(self))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    @property
    def period(self) -> float:
        return self.t1 + self.t2

    @property
    def dim(self) -> int:
        return 2**self.n_sites

    @property
    def perfect_pulse(self) -> bool:
        """epsilon exactly 0 and 2*g*t1 = pi to 1e-12: the kick is a pi pulse."""
        return self.epsilon == 0.0 and abs(2.0 * self.g * self.t1 - np.pi) < 1e-12

    def with_disorder(self, disorder) -> "SpinNetworkConfig":
        return replace(self, disorder=np.asarray(disorder, float))


def hamiltonian_kick(config: SpinNetworkConfig) -> np.ndarray:
    """Kick Hamiltonian g(1-epsilon) sum_l sigma_l^x.

    Built from the basis bits, as :func:`hamiltonian_interaction` is:
    sigma_l^x connects basis states i and i ^ bit_l.
    """
    amp = config.g * (1.0 - config.epsilon)
    idx = np.arange(config.dim)
    H = np.zeros((config.dim, config.dim), dtype=complex)
    for bit in 1 << np.arange(config.n_sites):
        H[idx, idx ^ bit] = amp
    return H


def hamiltonian_interaction(config: SpinNetworkConfig) -> np.ndarray:
    """Interaction Hamiltonian: XY coupling over pairs plus on-site disorder.

    The pair sum runs over unordered pairs l < m, each counted once:
    sum_{l<m} J[l, m] (sigma_l^x sigma_m^x + sigma_l^y sigma_m^y)
    + sum_l disorder[l] sigma_l^z.  Commutes with the excitation number
    operator for any disorder vector.

    Built from the basis bits: the XY term of pair (l, m) is 2 J[l, m]
    between basis states i and i ^ (bit_l | bit_m) wherever bits l and m of i
    differ, and sigma_l^z is diagonal with the signs of z_sign_table.
    """
    n = config.n_sites
    J = coupling_matrix(n, config.j0, config.alpha)
    idx = np.arange(config.dim)
    bits = 1 << (n - 1 - np.arange(n))  # basis-index bit of each site
    H = np.zeros((config.dim, config.dim))
    for l in range(n):
        for m in range(l + 1, n):
            if J[l, m] == 0.0:
                continue
            rows = idx[((idx & bits[l]) == 0) != ((idx & bits[m]) == 0)]
            H[rows, rows ^ (bits[l] | bits[m])] = 2.0 * J[l, m]
    signs = z_sign_table(n)
    for l in range(n):
        if config.disorder[l] != 0.0:
            H[idx, idx] += config.disorder[l] * signs[l]
    return H.astype(complex)


def excitation_number_operator(n_sites: int) -> np.ndarray:
    """Diagonal operator counting |1> occupations, eigenvalues 0..n_sites."""
    return np.diag(excitation_counts(n_sites).astype(complex))


def excitation_counts(n_sites: int) -> np.ndarray:
    """Number of |1> bits of every computational basis state, length 2^N."""
    idx = np.arange(2**n_sites)
    return np.array([bin(i).count("1") for i in idx])


def excitation_sectors(n_sites: int) -> list[np.ndarray]:
    """Basis indices grouped by excitation count, one array per sector 0..N."""
    counts = excitation_counts(n_sites)
    return [np.flatnonzero(counts == k) for k in range(n_sites + 1)]


def z_sign_table(n_sites: int) -> np.ndarray:
    """sigma^z eigenvalues per (site, basis state), shape (N, 2^N), entries +-1."""
    idx = np.arange(2**n_sites)
    bits = (idx[None, :] >> (n_sites - 1 - np.arange(n_sites)[:, None])) & 1
    return 2.0 * bits - 1.0


def sample_disorder(n_sites: int, strength: float, seed) -> np.ndarray:
    """Draw on-site energies uniformly from [0, strength], deterministically.

    ``seed`` may be an int, a numpy SeedSequence or a Generator; the same
    seed always yields the same vector.
    """
    if strength < 0:
        raise ValueError("disorder strength must be >= 0")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    return rng.uniform(0.0, strength, n_sites)
