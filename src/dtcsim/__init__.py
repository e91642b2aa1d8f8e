"""dtcsim: Floquet-Lindblad simulation of driven, dephasing spin networks.

Builds the stroboscopic dynamical maps of a periodically kicked XY spin
network with site dephasing, evolves density matrices over hundreds of
drive periods, extracts Liouvillian spectra, gaps and steady-state
manifolds, and sweeps diagonal disorder, with an independent fixed-step ODE
integrator and exact two-site results available as cross checks.
"""

__version__ = "0.1.0"

from .experiments import (
    InitialStateSpec,
    SweepSpec,
    build_initial_state,
    disorder_gap_sweep,
    ode_oracle_evolve,
    run_stroboscopic,
)
from .floquet import (
    DynamicalMap,
    floquet_2T_sector_blocks,
    floquet_map,
    floquet_map_2T,
    kick_unitary,
    matrix_exp,
)
from .observables import (
    ObservableTrace,
    Partition,
    all_magnetizations,
    default_partition,
    negativity,
    purity,
    total_excitations,
)
from .operators import (
    SpinNetworkConfig,
    excitation_number_operator,
    hamiltonian_interaction,
    hamiltonian_kick,
    sample_disorder,
)
from .spectra import (
    GapResult,
    eigendecompose,
    excitation_superop_commutant_check,
    liouvillian_gap,
    sector_gap,
    spectrum_2T,
    steady_states,
)
from .superop import (
    devectorize,
    lindblad_rhs,
    liouvillian,
    validate_density_matrix,
    vectorize,
)
from .twosite import (
    analytic_effective_coupling,
    coupling_gamma_crossings,
    critical_disorder_estimate,
    two_site_gap_curve,
    two_site_numeric_coupling,
)

__all__ = [
    "__version__",
    "SpinNetworkConfig",
    "hamiltonian_kick",
    "hamiltonian_interaction",
    "excitation_number_operator",
    "sample_disorder",
    "vectorize",
    "devectorize",
    "liouvillian",
    "lindblad_rhs",
    "validate_density_matrix",
    "DynamicalMap",
    "matrix_exp",
    "kick_unitary",
    "floquet_map",
    "floquet_map_2T",
    "floquet_2T_sector_blocks",
    "GapResult",
    "eigendecompose",
    "liouvillian_gap",
    "steady_states",
    "excitation_superop_commutant_check",
    "sector_gap",
    "spectrum_2T",
    "Partition",
    "ObservableTrace",
    "default_partition",
    "all_magnetizations",
    "negativity",
    "purity",
    "total_excitations",
    "InitialStateSpec",
    "SweepSpec",
    "build_initial_state",
    "run_stroboscopic",
    "ode_oracle_evolve",
    "disorder_gap_sweep",
    "analytic_effective_coupling",
    "two_site_numeric_coupling",
    "critical_disorder_estimate",
    "coupling_gamma_crossings",
    "two_site_gap_curve",
]
