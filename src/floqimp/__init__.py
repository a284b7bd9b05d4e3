"""Driven two-site defects in free-fermion chains: dynamics and Floquet analytics."""

__version__ = "0.1.0"

from .model import ChainParams, DriveFamily, DriveSpec, ModelError, impurity_block, single_particle_hamiltonian
from .gaussian import (
    GaussianState,
    Propagator,
    half_filled_ground_state,
    two_step_propagator,
    harmonic_propagator,
    evolve,
    entanglement_entropy,
    entanglement_profile,
)
from .floquet_analytics import (
    mirror_operator,
    su2_check,
    floquet_hamiltonian_exact,
    quasienergy_gap,
    characteristic_roots,
    sw_effective_hamiltonian,
    kato_hamiltonian_sp,
)
from .manybody_ed import (
    sector_basis,
    build_sector_hamiltonian,
    floquet_unitary_mb,
    average_energy_spectrum_mb,
    two_step_theta_sp,
    free_ground_state_weight,
    lowest_k_free_spectrum,
)
from .diagnostics import (
    PhaseLabel,
    EETimeSeries,
    PhasePoint,
    half_chain_series,
    classify_heating,
    revival_period,
    count_recurrences,
    pt_classify,
    phase_diagram,
    gap_curve,
)

__all__ = [name for name in dir() if not name.startswith("_")]
