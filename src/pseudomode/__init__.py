"""Open quantum dynamics for Lorentzian reservoirs via one damped ancilla mode.

A Lorentzian line's influence on a small system is reproduced exactly by
coupling the system to a single damped oscillator and evolving the pair with
an ordinary (memoryless) master equation; tracing out the oscillator returns
the non-Markovian reduced dynamics. The package implements that pipeline
together with two independent brute-force references (a memory-kernel
amplitude solver and a discretized-bath unitary evolution), a quantum-jump
trajectory unraveling, and a JSON-driven CLI.
"""

from .algebra import (
    DensityMatrix,
    DensityMatrixError,
    HilbertFactorization,
    Operator,
    annihilation,
    expectation,
    hermiticity_defect,
    identity,
    kron,
    partial_trace,
    sigma_minus,
    trace_distance,
)
from .baths import (
    Flat,
    Lorentzian,
    SpectralDensity,
    correlation_function,
    markovian_rate,
    spectral_density_eval,
    verify_fourier_pair,
)
from .config import ConfigError, ScenarioConfig, load_scenario, parse_scenario
from .dynamics import (
    LindbladModel,
    TimeGrid,
    evolve,
    generator_defect,
    lindblad_rhs,
    regression_correlator,
)
from .embedding import (
    EmbeddingResult,
    EmbeddingSpec,
    FockTruncationWarning,
    SystemSpec,
    TruncationError,
    build_embedding,
    choose_truncation,
    oscillator_system,
    simulate_lorentzian,
    tls_system,
)
from .integrators import IntegrationError, IntegratorConfig
from .oracles import (
    AmplitudeTrajectory,
    BathRecurrenceWarning,
    DiscreteBath,
    build_discrete_bath,
    discrete_bath_evolve,
    solve_volterra_kernel,
    volterra_amplitude,
)
from .trajectories import (
    EnsembleStats,
    JumpDegeneracyError,
    TrajectoryConfig,
    TrajectoryResult,
    ensemble_average,
    mcwf_run,
)

__version__ = "0.1.0"
