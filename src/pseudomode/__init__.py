"""Open quantum dynamics for Lorentzian reservoirs via one damped ancilla mode.

A Lorentzian line's influence on a small system is reproduced exactly by
coupling the system to a single damped oscillator and evolving the pair with
an ordinary (memoryless) master equation; tracing out the oscillator returns
the non-Markovian reduced dynamics. The package implements that pipeline
together with two independent brute-force references (a memory-kernel
amplitude solver and a discretized-bath unitary evolution), a quantum-jump
trajectory unraveling, and a JSON-driven CLI.

A public name imports its submodule on first use (PEP 562), so parsing a
config loads neither the trajectory engine, with its multiprocessing, nor,
unless the config runs one, the references. Each access reads the
submodule's current attribute: nothing is cached here, so a function rebound
in its module is seen through the package too.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "algebra": (
        "DensityMatrix",
        "DensityMatrixError",
        "HilbertFactorization",
        "Operator",
        "annihilation",
        "expectation",
        "hermiticity_defect",
        "identity",
        "kron",
        "partial_trace",
        "sigma_minus",
        "trace_distance",
    ),
    "baths": (
        "Flat",
        "Lorentzian",
        "SpectralDensity",
        "correlation_function",
        "markovian_rate",
        "spectral_density_eval",
        "verify_fourier_pair",
    ),
    "config": ("ConfigError", "ScenarioConfig", "load_scenario", "parse_scenario"),
    "dynamics": (
        "LindbladModel",
        "TimeGrid",
        "evolve",
        "generator_defect",
        "lindblad_rhs",
        "regression_correlator",
    ),
    "embedding": (
        "EmbeddingResult",
        "EmbeddingSpec",
        "FockTruncationWarning",
        "SystemSpec",
        "TruncationError",
        "build_embedding",
        "choose_truncation",
        "oscillator_system",
        "simulate_lorentzian",
        "tls_system",
    ),
    "integrators": ("IntegrationError", "IntegratorConfig"),
    "oracles": (
        "AmplitudeTrajectory",
        "BathRecurrenceWarning",
        "DiscreteBath",
        "build_discrete_bath",
        "discrete_bath_evolve",
        "solve_volterra_kernel",
        "volterra_amplitude",
    ),
    "trajectories": (
        "EnsembleStats",
        "JumpDegeneracyError",
        "TrajectoryConfig",
        "TrajectoryResult",
        "ensemble_average",
        "mcwf_run",
    ),
}
# public name -> the submodule that defines it
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset({*_EXPORTS, "cli"})

__all__ = list(_ORIGIN)


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _ORIGIN:
        return getattr(importlib.import_module(f"{__name__}.{_ORIGIN[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
