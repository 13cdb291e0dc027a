"""Optimal tunable-coupling schedules for catching single-excitation pulses.

An itinerant single-excitation pulse with rate profile r_in is absorbed
into a resonator memory with tunable coupling kappa(tau) and intrinsic loss
kappa_i, all rates in units of the maximum coupling. The package builds the
two-stage zero-reflection schedule, evaluates its closed forms for
exponential and Gaussian inputs, simulates the full dynamics (amplitude and
Lindblad pictures), checks the semiclassical limit, and sweeps fidelity
surfaces over (kappa_i, r).

Importing the package loads no submodule: each public name, and each
submodule that lends names, is imported on first access (PEP 562), so the
command line loads only the modules a command runs.
"""

import sys

# Each submodule and the public names it lends the package namespace.
_EXPORTS = {
    "errors": ("BoundaryMaximumWarning", "DomainError", "InfeasibleSchedule",
               "NoPeak", "NoThreshold", "PulsecatchError", "SingularCoupling",
               "StepFailure"),
    "profiles": ("InputProfile", "MemoryParams", "ValidationReport",
                 "cumulative", "exponential", "gaussian", "horizon",
                 "parse_profile", "rate_at", "tabulated", "total_excitation",
                 "validate"),
    "closedform": ("ExpConstants", "GaussConstants", "exp_constants",
                   "exp_coupling", "exp_population", "exp_report",
                   "exp_tau_c", "gauss_constants", "gauss_coupling",
                   "gauss_population", "gauss_rate", "gauss_report"),
    "protocol": ("CouplingSchedule", "TransferReport", "build_schedule",
                 "peak_time_and_fidelity", "stage1_amplitude",
                 "stage2_population", "threshold_time"),
    "dynamics": ("Trajectory", "energy_balance_residual", "reflection_rate",
                 "simulate_amplitudes", "simulate_master_equation",
                 "verify_nonhermitian_reduction"),
    "semiclassical": ("ClassicalField", "compare_with_full_quantum",
                      "field_from_profile", "output_amplitude",
                      "semiclassical_coupling", "semiclassical_population",
                      "stored_amplitude"),
    "sweep": ("CellFailure", "SweepGrid", "fidelity_surface", "optimal_rate",
              "write_surface_csv"),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = list(_OWNER)


def __getattr__(name):
    module = _OWNER.get(name, name)
    if module not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # the import statement's route, which `-X importtime` lists;
    # importlib.import_module bypasses it
    __import__(f"{__name__}.{module}")
    value = sys.modules[f"{__name__}.{module}"]
    return value if module == name else getattr(value, name)


def __dir__():
    return sorted({*globals(), *__all__})
