"""Lorentzian reservoir replaced by one damped ancilla mode.

The system couples excitation-exchange style to a single oscillator at the
line center, the oscillator is damped at the linewidth, and tracing the
oscillator out returns the reduced system state. The ancilla damping rate is
hard-wired to the linewidth: that identification is exactly what makes the
ancilla's vacuum correlation function match the reservoir's, so it is not a
tunable parameter.

Every Lindblad scenario the CLI runs takes its curve from one stacked
grid-step core, _reduced_curve; dynamics.evolve is the adaptive entry point.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .algebra import (
    DensityMatrix,
    HilbertFactorization,
    Operator,
    annihilation,
    check_density_matrices,
    hermiticity_defect,
    identity,
    kron,
)
from .baths import Lorentzian
from .dynamics import (
    LindbladModel,
    TimeGrid,
    _evolve_block,
    _reachable,
    _reachable_entries,
    _restricted,
    superoperator,
)
from .integrators import IntegratorConfig, propagator

TOP_LEVEL_POPULATION_TOL = 1e-6
_TRUNCATION_LADDER = (2, 4, 8, 16, 32, 64)
_MAX_PROPAGATED_ENTRIES = 256
_VALIDATION_CHUNK = 1 << 16  # composite entries validated in one stacked pass


class TruncationError(RuntimeError):
    """Doubling the ancilla Fock space did not converge within the ladder."""


class FockTruncationWarning(UserWarning):
    """The top ancilla Fock level acquired non-negligible population."""


@dataclass(frozen=True, eq=False)
class SystemSpec:
    """System dimension, self-Hamiltonian (detuning terms), coupling operator.

    H_S lives in the frame rotating at the bath center frequency, so it is
    zero on resonance and carries only detuning contributions otherwise.
    """

    d_S: int
    H_S: Operator
    V: Operator

    def __post_init__(self):
        if self.H_S.dim != self.d_S or self.V.dim != self.d_S:
            raise ValueError(
                f"system operators must have dim {self.d_S}, "
                f"got H_S {self.H_S.dim}, V {self.V.dim}"
            )
        defect = hermiticity_defect(self.H_S)
        if defect > 1e-12:
            raise ValueError(f"H_S not Hermitian: defect {defect:.3e}")


def tls_system(detuning: float = 0.0) -> SystemSpec:
    """Two-level system with lowering coupling operator (index 1 = excited)."""
    h = np.diag([0.0, float(detuning)]).astype(complex)
    return SystemSpec(d_S=2, H_S=Operator(h), V=annihilation(2))


def oscillator_system(d_S: int, detuning: float = 0.0) -> SystemSpec:
    """Truncated harmonic system with ladder coupling operator."""
    h = float(detuning) * np.diag(np.arange(d_S, dtype=float)).astype(complex)
    return SystemSpec(d_S=d_S, H_S=Operator(h), V=annihilation(d_S))


@dataclass(frozen=True, eq=False)
class EmbeddingSpec:
    system: SystemSpec
    bath: Lorentzian
    d_A: int

    def __post_init__(self):
        if self.d_A < 2:
            raise ValueError(f"ancilla truncation must be >= 2, got {self.d_A}")


@dataclass(frozen=True, eq=False)
class EmbeddingResult:
    model: LindbladModel
    factorization: HilbertFactorization
    rho0: DensityMatrix


def _composite(spec: EmbeddingSpec, rho_S0: DensityMatrix) -> tuple[LindbladModel, np.ndarray]:
    """System + ancilla model and its initial state rho_S0 x vacuum (as a matrix)."""
    sys = spec.system
    if rho_S0.dim != sys.d_S:
        raise ValueError(f"initial state dim {rho_S0.dim} != system dim {sys.d_S}")
    d_A = spec.d_A
    a = annihilation(d_A)
    one_s = identity(sys.d_S)
    one_a = identity(d_A)
    g = spec.bath.g
    h = kron(sys.H_S, one_a) + g * (kron(sys.V.dagger(), a) + kron(sys.V, a.dagger()))
    model = LindbladModel(
        dim=sys.d_S * d_A,
        H=h,
        jumps=((spec.bath.gamma, kron(one_s, a)),),
    )
    vac = np.zeros((d_A, d_A), dtype=complex)
    vac[0, 0] = 1.0
    return model, np.kron(rho_S0.mat, vac)


def build_embedding(spec: EmbeddingSpec, rho_S0: DensityMatrix) -> EmbeddingResult:
    """Composite system + ancilla model with the ancilla starting in vacuum."""
    model, rho0 = _composite(spec, rho_S0)
    return EmbeddingResult(
        model=model,
        factorization=HilbertFactorization((spec.system.d_S, spec.d_A)),
        rho0=DensityMatrix(Operator(rho0)),
    )


def _check_curve(curve: np.ndarray, entries: np.ndarray, n: int) -> None:
    """Validate the n x n composite block at every instant, a bounded chunk at a time."""
    chunk = max(1, _VALIDATION_CHUNK // (n * n))
    for start in range(0, len(curve), chunk):
        part = curve[start:start + chunk]
        blocks = np.zeros((len(part), n * n), dtype=complex)
        blocks[:, entries] = part
        check_density_matrices(blocks.reshape(-1, n, n), start=start, total=len(curve))


def _reduced_curve(model: LindbladModel, rho0: np.ndarray, d_A: int, grid: TimeGrid,
                   cfg: IntegratorConfig) -> np.ndarray:
    """Reduced states of a system x ancilla model on the grid, one (n_t, d_S, d_S) stack.

    The one curve core of every Lindblad scenario; d_A = 1 is a model with
    no ancilla (the markovian scenario). The master equation is solved only
    on the density-matrix entries that can become nonzero: rho0's nonzero
    entries, closed under the operator patterns of the generator on the
    basis states reachable from rho0. Every other entry stays exactly zero.
    The generator is time independent and the grid uniform, so each instant
    is one product with a grid-step propagator, built by
    integrators.propagator at cfg's tolerances with norm_size the composite
    matrix's d^2 entries: a weight k^2 / d^2 on the RMS error of the k x k
    propagator, which holds each of its columns at least as tight as evolve
    holds one state.
    Above 256 entries the k x k propagator costs more than it saves (k^3
    per Dopri5 stage, against n^3 for the n x n block of reachable states)
    and needs k^2 memory, so the block is integrated adaptively instead, as
    in evolve. Either way the composite curve is validated as a stack with
    DensityMatrix's tolerances, a bounded chunk of instants at a time; the
    reduced states are partial traces of it and are not validated again.

    For d_A > 1, warns with FockTruncationWarning if the top ancilla Fock level
    ever carries more than 1e-6 population, signalling possible truncation leakage.
    """
    d_S = model.dim // d_A
    states = _reachable(model, rho0)
    n = states.size
    block = _restricted(model, states)
    block0 = rho0[np.ix_(states, states)]
    entries = _reachable_entries(block, block0)
    curve = np.empty((grid.n_points, entries.size), dtype=complex)
    if entries.size <= _MAX_PROPAGATED_ENTRIES:
        step = propagator(superoperator(block, entries), grid.dt, cfg, norm_size=rho0.size)
        curve[0] = block0.reshape(-1)[entries]
        for i in range(1, grid.n_points):
            curve[i] = step @ curve[i - 1]
    else:
        for i, m in enumerate(_evolve_block(block, block0, grid, cfg, rho0.size)):
            curve[i] = m.reshape(-1)[entries]
    _check_curve(curve, entries, n)

    row, col = np.divmod(entries, n)
    sys_row, anc_row = np.divmod(states[row], d_A)
    sys_col, anc_col = np.divmod(states[col], d_A)
    if d_A > 1:
        top = float(np.max(curve[:, (row == col) & (anc_row == d_A - 1)].real.sum(axis=1)))
        if top > TOP_LEVEL_POPULATION_TOL:
            warnings.warn(
                f"top ancilla Fock level reached population {top:.3e} "
                f"(> {TOP_LEVEL_POPULATION_TOL:g}); consider a larger d_A",
                FockTruncationWarning,
                stacklevel=3,
            )
    traced = np.flatnonzero(anc_row == anc_col)
    to_reduced = np.zeros((traced.size, d_S * d_S))
    to_reduced[np.arange(traced.size), sys_row[traced] * d_S + sys_col[traced]] = 1.0
    return (curve[:, traced] @ to_reduced).reshape(-1, d_S, d_S)


def simulate_lorentzian(
    spec: EmbeddingSpec,
    rho_S0: DensityMatrix,
    grid: TimeGrid,
    cfg: IntegratorConfig = IntegratorConfig(),
) -> list[DensityMatrix]:
    """Reduced system states at each grid instant for a Lorentzian reservoir.

    One DensityMatrix per instant of _reduced_curve on the composite model.
    Warns with FockTruncationWarning if the top ancilla Fock level ever
    carries more than 1e-6 population.
    """
    model, rho0 = _composite(spec, rho_S0)
    return [DensityMatrix(Operator(r)) for r in _reduced_curve(model, rho0, spec.d_A, grid, cfg)]


def choose_truncation(
    system: SystemSpec,
    bath: Lorentzian,
    rho_S0: DensityMatrix,
    grid: TimeGrid,
    cfg: IntegratorConfig = IntegratorConfig(),
    tol: float = 1e-7,
) -> int:
    """Smallest d_A in the doubling ladder whose curve agrees with 2 d_A.

    Agreement is max-over-time trace distance below tol. Raises
    TruncationError if even d_A = 64 has not converged.
    """
    return _truncation_ladder(system, bath, rho_S0, grid, cfg, tol)[0]


def _truncation_ladder(
    system: SystemSpec,
    bath: Lorentzian,
    rho_S0: DensityMatrix,
    grid: TimeGrid,
    cfg: IntegratorConfig,
    tol: float,
) -> tuple[int, np.ndarray]:
    """choose_truncation's d_A together with the reduced curve it certified, as a stack."""
    if tol <= 0.0:
        raise ValueError(f"tolerance must be positive, got {tol}")

    def reduced_curve(d_A: int) -> np.ndarray:
        model, rho0 = _composite(EmbeddingSpec(system, bath, d_A), rho_S0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", FockTruncationWarning)
            return _reduced_curve(model, rho0, d_A, grid, cfg)

    prev = reduced_curve(_TRUNCATION_LADDER[0])
    for d_A in _TRUNCATION_LADDER:
        doubled = reduced_curve(2 * d_A)
        diff = prev - doubled
        diff = (diff + diff.conj().swapaxes(-1, -2)) / 2.0
        # algebra.trace_distance at every instant, in one stacked eigvalsh
        dist = 0.5 * float(np.max(np.sum(np.abs(np.linalg.eigvalsh(diff)), axis=-1)))
        if dist < tol:
            return d_A, prev
        prev = doubled
    raise TruncationError(
        f"ancilla truncation did not converge below {tol:g} by d_A = {_TRUNCATION_LADDER[-1]}"
    )
