"""Optimal tunable-coupling schedules for catching single-excitation pulses.

An itinerant single-excitation pulse with rate profile r_in is absorbed
into a resonator memory with tunable coupling kappa(tau) and intrinsic loss
kappa_i, all rates in units of the maximum coupling. The package builds the
two-stage zero-reflection schedule, evaluates its closed forms for
exponential and Gaussian inputs, simulates the full dynamics (amplitude and
Lindblad pictures), checks the semiclassical limit, and sweeps fidelity
surfaces over (kappa_i, r).
"""

from .errors import (
    BoundaryMaximumWarning,
    DomainError,
    InfeasibleSchedule,
    NoPeak,
    NoThreshold,
    PulsecatchError,
    SingularCoupling,
    StepFailure,
)
from .profiles import (
    InputProfile,
    MemoryParams,
    ValidationReport,
    cumulative,
    exponential,
    gaussian,
    horizon,
    parse_profile,
    rate_at,
    tabulated,
    total_excitation,
    validate,
)
from .closedform import (
    ExpConstants,
    GaussConstants,
    exp_constants,
    exp_coupling,
    exp_population,
    exp_report,
    exp_tau_c,
    gauss_constants,
    gauss_coupling,
    gauss_population,
    gauss_rate,
    gauss_report,
)
from .protocol import (
    CouplingSchedule,
    TransferReport,
    build_schedule,
    peak_time_and_fidelity,
    stage1_amplitude,
    stage2_population,
    threshold_time,
)
from .dynamics import (
    DensityMatrix3,
    Trajectory,
    energy_balance_residual,
    reflection_rate,
    simulate_amplitudes,
    simulate_master_equation,
    verify_nonhermitian_reduction,
)
from .semiclassical import (
    ClassicalField,
    compare_with_full_quantum,
    field_from_profile,
    output_amplitude,
    semiclassical_coupling,
    semiclassical_population,
    stored_amplitude,
)
from .sweep import (
    CellFailure,
    SweepGrid,
    fidelity_surface,
    optimal_rate,
    write_surface_csv,
)

__version__ = "0.1.0"

__all__ = [
    "BoundaryMaximumWarning", "DomainError", "InfeasibleSchedule", "NoPeak",
    "NoThreshold", "PulsecatchError", "SingularCoupling", "StepFailure",
    "InputProfile", "MemoryParams", "ValidationReport", "cumulative",
    "exponential", "gaussian", "horizon", "parse_profile", "rate_at",
    "tabulated", "total_excitation", "validate",
    "ExpConstants", "GaussConstants", "exp_constants", "exp_coupling",
    "exp_population", "exp_report", "exp_tau_c", "gauss_constants",
    "gauss_coupling", "gauss_population", "gauss_rate", "gauss_report",
    "CouplingSchedule", "TransferReport", "build_schedule",
    "peak_time_and_fidelity", "stage1_amplitude", "stage2_population",
    "threshold_time",
    "DensityMatrix3", "Trajectory", "energy_balance_residual",
    "reflection_rate", "simulate_amplitudes", "simulate_master_equation",
    "verify_nonhermitian_reduction",
    "ClassicalField", "compare_with_full_quantum", "field_from_profile",
    "output_amplitude", "semiclassical_coupling", "semiclassical_population",
    "stored_amplitude",
    "CellFailure", "SweepGrid", "fidelity_surface", "optimal_rate",
    "write_surface_csv",
]
