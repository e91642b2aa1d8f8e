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
    SweepResult,
    SweepSpec,
    build_initial_state,
    disorder_gap_sweep,
    dtc_settling_period,
    ode_oracle_evolve,
    run_stroboscopic,
)
from .floquet import (
    DynamicalMap,
    effective_hamiltonian_2T,
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
    partial_transpose,
    purity,
    total_excitations,
)
from .operators import (
    SpinNetworkConfig,
    coupling_matrix,
    embed,
    excitation_number_operator,
    hamiltonian_interaction,
    hamiltonian_kick,
    pauli,
    sample_disorder,
)
from .spectra import (
    EffectiveGenerator,
    GapResult,
    SpectralData,
    effective_liouvillian_2T,
    eigendecompose,
    excitation_superop_commutant_check,
    liouvillian_gap,
    sector_gap,
    spectrum_2T,
    steady_states,
)
from .superop import (
    devectorize,
    hamiltonian_superop,
    lindblad_rhs,
    liouvillian,
    validate_density_matrix,
    vectorize,
)
from .twosite import (
    TwoSiteEffective,
    analytic_effective_coupling,
    coupling_gamma_crossings,
    critical_disorder_estimate,
    two_site_gap_curve,
    two_site_numeric_coupling,
)

__all__ = [
    "__version__",
    "SpinNetworkConfig",
    "pauli",
    "embed",
    "coupling_matrix",
    "hamiltonian_kick",
    "hamiltonian_interaction",
    "excitation_number_operator",
    "sample_disorder",
    "vectorize",
    "devectorize",
    "hamiltonian_superop",
    "liouvillian",
    "lindblad_rhs",
    "validate_density_matrix",
    "DynamicalMap",
    "EffectiveGenerator",
    "matrix_exp",
    "kick_unitary",
    "floquet_map",
    "floquet_map_2T",
    "floquet_2T_sector_blocks",
    "effective_hamiltonian_2T",
    "effective_liouvillian_2T",
    "SpectralData",
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
    "partial_transpose",
    "negativity",
    "purity",
    "total_excitations",
    "InitialStateSpec",
    "SweepSpec",
    "SweepResult",
    "build_initial_state",
    "run_stroboscopic",
    "dtc_settling_period",
    "ode_oracle_evolve",
    "disorder_gap_sweep",
    "TwoSiteEffective",
    "analytic_effective_coupling",
    "two_site_numeric_coupling",
    "critical_disorder_estimate",
    "coupling_gamma_crossings",
    "two_site_gap_curve",
]
