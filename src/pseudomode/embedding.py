"""Lorentzian reservoir replaced by one damped ancilla mode.

The system couples excitation-exchange style to a single oscillator at the
line center, the oscillator is damped at the linewidth, and tracing the
oscillator out returns the reduced system state. The ancilla damping rate is
hard-wired to the linewidth: that identification is exactly what makes the
ancilla's vacuum correlation function match the reservoir's, so it is not a
tunable parameter.

Every Lindblad scenario the CLI runs takes its curve from one stacked core,
_reduced_curve, on the real coordinates of the reachable entries: a grid-step
propagator up to 256 live coordinates, past them the adaptive run of evolve.
The grid loop fills B instants per product from the stacked powers of the
step, with B from the live coordinates and the grid length so that the powers
cost at most 1 / B of the matrix-vector calls they save (_batch_width).

The "auto" ladder (_truncation_ladder) doubles d_A until two rungs agree. The
coupling conserves excitations and V a^dag is its only term that raises the
ancilla, so once no reachable state on a rung's top level d_A - 1 has a
nonzero column of V, every larger rung reaches the same states, entries and
real generator. From there on each rung reuses that layout, its states
renumbered s d_A + a, and builds neither the composite nor a layout.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass

import numpy as np

from .algebra import (
    DensityMatrix,
    HilbertFactorization,
    Operator,
    _density_matrices,
    _is_int,
    _kron,
    annihilation,
    check_block_diagonal,
    hermiticity_defect,
)
from .baths import Lorentzian
from .dynamics import (
    LindbladModel,
    TimeGrid,
    _coordinate_layout,
    _HermitianCoordinates,
    _integrate_coordinates,
    _Layout,
)
from .integrators import IntegratorConfig, propagator

TOP_LEVEL_POPULATION_TOL = 1e-6
_TRUNCATION_LADDER = (2, 4, 8, 16, 32, 64)
# d_S x d_A at a fixed numerics.d_A and on every rung of the auto ladder: one dense complex
# operator of the system + ancilla model takes 16 (d_S d_A)^2 bytes, 256 MiB at the bound
MAX_COMPOSITE_DIM = 2**12
# Past this many live coordinates c the curve is integrated adaptively: the grid
# branch holds the generator, its powers and a propagator as dense c x c arrays,
# and building the propagator takes six c x c products for the powers and two
# per Dopri5 step, while the adaptive branch holds only the generator's nonzeros
# (about five per entry) and takes one sparse product per stage.
_MAX_PROPAGATED_ENTRIES = 256
_VALIDATION_CHUNK = 1 << 16  # block entries validated in one stacked pass
# One matrix-vector call of the grid loop, in flops of a c x c matrix product: about
# 2.3 us per call against 0.03 ns per flop, 77000 flops, rounded down (numpy 2.4.6,
# OpenBLAS, one thread, 2-vCPU host)
_CALL_FLOPS = 60_000
_MAX_POWER_ENTRIES = 1 << 16  # entries of the stacked powers S, ..., S^B: 512 KiB


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
        if not (_is_int(self.d_S) and self.d_S >= 1):
            raise ValueError(f"system dimension d_S must be an integer >= 1, got {self.d_S!r}")
        if self.H_S.dim != self.d_S or self.V.dim != self.d_S:
            raise ValueError(
                f"system operators must have dim {self.d_S}, "
                f"got H_S {self.H_S.dim}, V {self.V.dim}"
            )
        # the defect of a non-finite H_S is NaN, which no comparison rejects
        if not np.isfinite(self.H_S.mat).all():
            raise ValueError("H_S must have finite entries")
        defect = hermiticity_defect(self.H_S)
        if defect > 1e-12:
            raise ValueError(f"H_S not Hermitian: defect {defect:.3e}")


def tls_system(detuning: float = 0.0) -> SystemSpec:
    """Two-level system with lowering coupling operator (index 1 = excited)."""
    h = np.diag([0.0, float(detuning)]).astype(complex)
    return SystemSpec(d_S=2, H_S=Operator(h), V=annihilation(2))


def _detuning(system: SystemSpec) -> float:
    """H_S[1,1] - H_S[0,0]: the detuning from the line center, for either preset."""
    h = system.H_S.mat
    return float(np.real(h[1, 1] - h[0, 0]))


def oscillator_system(d_S: int, detuning: float = 0.0) -> SystemSpec:
    """Truncated harmonic system with ladder coupling operator."""
    with np.errstate(over="ignore"):  # an overflow is an inf entry, which SystemSpec rejects
        h = float(detuning) * np.diag(np.arange(d_S, dtype=float)).astype(complex)
    return SystemSpec(d_S=d_S, H_S=Operator(h), V=annihilation(d_S))


@dataclass(frozen=True, eq=False)
class EmbeddingSpec:
    system: SystemSpec
    bath: Lorentzian
    d_A: int

    def __post_init__(self):
        if not (_is_int(self.d_A) and self.d_A >= 2):
            raise ValueError(f"ancilla truncation d_A must be an integer >= 2, got {self.d_A!r}")


@dataclass(frozen=True, eq=False)
class EmbeddingResult:
    model: LindbladModel
    factorization: HilbertFactorization
    rho0: DensityMatrix


def _composite(spec: EmbeddingSpec, rho_S0: DensityMatrix) -> tuple[LindbladModel, np.ndarray]:
    """System + ancilla model and its initial state rho_S0 x vacuum (as a matrix), formed as
    _kron products of the system and ancilla matrices; LindbladModel validates the model."""
    sys = spec.system
    if rho_S0.dim != sys.d_S:
        raise ValueError(f"initial state dim {rho_S0.dim} != system dim {sys.d_S}")
    d_A, v = spec.d_A, sys.V.mat
    a = annihilation(d_A).mat
    h = _kron(sys.H_S.mat, np.eye(d_A, dtype=complex)) + (
        _kron(v.conj().T, a) + _kron(v, a.conj().T)) * complex(spec.bath.g)
    model = LindbladModel(
        dim=sys.d_S * d_A,
        H=Operator(h),
        jumps=((spec.bath.gamma, Operator(_kron(np.eye(sys.d_S, dtype=complex), a))),),
    )
    vac = np.zeros((d_A, d_A), dtype=complex)
    vac[0, 0] = 1.0
    return model, _kron(rho_S0.mat, vac)


def build_embedding(spec: EmbeddingSpec, rho_S0: DensityMatrix) -> EmbeddingResult:
    """Composite system + ancilla model with the ancilla starting in vacuum."""
    model, rho0 = _composite(spec, rho_S0)
    return EmbeddingResult(
        model=model,
        factorization=HilbertFactorization((spec.system.d_S, spec.d_A)),
        rho0=DensityMatrix(Operator(rho0)),
    )


def _check_curve(curve: np.ndarray, coords: _HermitianCoordinates) -> None:
    """Validate the composite state at every instant, block by block, a bounded chunk at a time.
    Entry (i, j) of T^dag x is the conjugate of entry (j, i), from the same coordinates, so an
    instant's Hermiticity defect is 0 where they are all finite and NaN elsewhere."""
    chunk = max(1, _VALIDATION_CHUNK // coords.block_entries)
    for start in range(0, len(curve), chunk):
        part = curve[start:start + chunk]
        check_block_diagonal(coords.blocks(part), start=start, total=len(curve),
                             defect=np.where(np.isfinite(part).all(axis=1), 0.0, np.nan))


def _batch_width(c: int, n_points: int) -> int:
    """Instants B that _grid_curve fills per product with a c x c step S on n_points instants.

    Stacking S, ..., S^B costs ceil(log2 B) products and (B - 1) 2 c^3 flops,
    and saves n_points - 1 - ceil((n_points - 1) / B) matrix-vector calls of
    _CALL_FLOPS each. B = sqrt((n_points - 1) _CALL_FLOPS / (2 c^3)) keeps the
    powers' flops within 1 / B of the calls they save. _MAX_POWER_ENTRIES caps
    B c^2, so the powers' memory does not grow with n_points.
    """
    intervals = n_points - 1
    width = min(math.isqrt(intervals * _CALL_FLOPS // (2 * c ** 3)), intervals,
                _MAX_POWER_ENTRIES // (c * c))
    return max(width, 1)


def _grid_curve(step: np.ndarray, x0: np.ndarray, n_points: int) -> np.ndarray:
    """x0, S x0, S^2 x0, ... on n_points instants, B = _batch_width instants per product.

    S, ..., S^B are stacked into one (B c, c) array, by doubling, and each
    product fills the next B instants from the last filled one; a ragged last
    batch takes the first powers only. B = 1 is one matrix-vector product per
    instant.
    """
    c = x0.size
    reached = np.empty((n_points, c))
    reached[0] = x0
    width = _batch_width(c, n_points)
    powers = np.empty((width * c, c))
    powers[:c] = step
    done = 1
    while done < width:  # S^(done + 1), ..., S^(done + m) = (S, ..., S^m) S^done
        m = min(done, width - done)
        np.matmul(powers[:m * c], powers[(done - 1) * c:done * c],
                  out=powers[done * c:(done + m) * c])
        done += m
    full, rest = divmod(n_points - 1, width)
    batches = reached[1:1 + full * width].reshape(full, width * c)
    for j in range(full):
        np.matmul(powers, reached[j * width], out=batches[j])
    if rest:
        np.matmul(powers[:rest * c], reached[full * width], out=reached[-rest:].reshape(-1))
    return reached


def _reduced_curve(model: LindbladModel | None, rho0: np.ndarray | None, d_A: int,
                   grid: TimeGrid, cfg: IntegratorConfig,
                   layout: _Layout | None = None) -> np.ndarray:
    """Reduced states of a system x ancilla model on the grid, one (n_t, d_S, d_S) stack.

    The one curve core of every Lindblad scenario; d_A = 1 is a model with
    no ancilla (the markovian scenario). Like evolve, it solves the master
    equation on the real coordinates of the k entries that can become
    nonzero, under their real generator R, and only on the c live ones,
    reached from rho0's along R's nonzeros: dynamics._coordinate_layout
    picks them and sums R on them; the rest stay exactly zero. At zero
    detuning each entry keeps a fixed phase, so only one coordinate of each
    transposed pair is live (c = 56 of k = 91 at d_S = 6, d_A = 16). Up to
    256 live coordinates, R is made dense on them and the curve is the
    powers of a grid-step propagator S of it applied to x0: S is
    integrators.propagator at cfg's tolerances with norm_size the composite
    d^2, which holds each column at least as tight as evolve holds one
    state, and takes each Dopri5 step as the tableau's stability polynomial
    in R. _grid_curve fills B instants per product from S, ..., S^B, with B
    from _batch_width. Past 256 live coordinates x' = R x is integrated
    adaptively, as in evolve. The composite state is validated by
    _check_curve; the reduced states are partial traces of the entry values
    T^dag x and are not validated again.

    For d_A > 1, warns with FockTruncationWarning if the top ancilla Fock level
    ever carries more than 1e-6 population, signalling possible truncation leakage.

    `layout` is _coordinate_layout(model, rho0), made here unless given; when
    given, model and rho0 are not read (the ladder passes only the layout).
    """
    if layout is None:
        layout = _coordinate_layout(model, rho0)
    d_S = layout.dim // d_A
    norm_size = layout.dim ** 2
    states, coords, live = layout.states, layout.coords, layout.live
    x0 = layout.z0.real[live]
    if live.size <= _MAX_PROPAGATED_ENTRIES:
        generator = np.bincount(*layout.generator, live.size ** 2).reshape(live.size, -1)
        reached = _grid_curve(propagator(generator, grid.dt, cfg, norm_size=norm_size), x0,
                              grid.n_points)
    else:
        reached = _integrate_coordinates(layout.generator, x0, grid.times(), cfg, norm_size)
    curve = layout.widen(reached)
    _check_curve(curve, coords)

    row, col = np.divmod(coords.entries, states.size)
    sys_row, anc_row = np.divmod(states[row], d_A)
    sys_col, anc_col = np.divmod(states[col], d_A)
    if d_A > 1:
        top = float(np.max(curve[:, (row == col) & (anc_row == d_A - 1)].sum(axis=1)))
        if top > TOP_LEVEL_POPULATION_TOL:
            warnings.warn(
                f"top ancilla Fock level reached population {top:.3e} "
                f"(> {TOP_LEVEL_POPULATION_TOL:g}); consider a larger d_A",
                FockTruncationWarning,
                stacklevel=3,
            )
    # the partial trace adds each entry (s a, s' a) into (s, s')
    traced = np.flatnonzero(anc_row == anc_col)
    reduced = np.zeros((d_S * d_S, grid.n_points), dtype=complex)
    np.add.at(reduced, sys_row[traced] * d_S + sys_col[traced], coords.values(curve, traced).T)
    return reduced.T.reshape(-1, d_S, d_S)


def simulate_lorentzian(
    spec: EmbeddingSpec,
    rho_S0: DensityMatrix,
    grid: TimeGrid,
    cfg: IntegratorConfig = IntegratorConfig(),
) -> list[DensityMatrix]:
    """Reduced system states at each grid instant for a Lorentzian reservoir.

    One DensityMatrix per instant of _reduced_curve on the composite model,
    whose reduced stack is checked once: a partial trace can leave tolerance.
    Warns with FockTruncationWarning if the top ancilla Fock level ever
    carries more than 1e-6 population.
    """
    model, rho0 = _composite(spec, rho_S0)
    return _density_matrices(_reduced_curve(model, rho0, spec.d_A, grid, cfg))


def choose_truncation(
    system: SystemSpec,
    bath: Lorentzian,
    rho_S0: DensityMatrix,
    grid: TimeGrid,
    cfg: IntegratorConfig = IntegratorConfig(),
    tol: float = 1e-7,
) -> int:
    """Smallest d_A in the doubling ladder whose curve agrees with 2 d_A.

    Agreement is max-over-time trace distance below tol. Raises ValueError
    unless tol is a positive and finite real number (not a bool), and
    TruncationError if even d_A = 64 has not converged or the next rung's
    d_S x d_A would pass MAX_COMPOSITE_DIM; no rung past that bound is run.
    A rung's layout is final once no reachable state on its top ancilla
    level has a nonzero column of V; the rungs above it reuse that layout
    (_truncation_ladder) and give the curves their own composites would.
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
    """choose_truncation's d_A together with the reduced curve it certified, as a stack.

    Every rung's curve comes from _reduced_curve. Until a rung's layout is
    final (no reachable state (s, d_A - 1) with a nonzero column s of V; V
    a^dag is the only term that raises the ancilla), each rung builds its
    composite and its _coordinate_layout. Every later rung reuses the final
    layout with its states renumbered s d_A + a: the same states, entries, R
    and z0, bit for bit, with no composite built. A reused rung still runs
    all that depends on its d_A or its curve: the MAX_COMPOSITE_DIM check
    before it, the propagator at norm_size (d_S d_A)^2 (so consecutive rungs
    still differ), _grid_curve, _check_curve, the top-level read and the
    partial trace.
    """
    if isinstance(tol, bool) or not (isinstance(tol, numbers.Real) and math.isfinite(tol)
                                     and tol > 0.0):
        raise ValueError(f"tolerance must be positive and finite, got {tol!r}")
    final = None  # the layout of the first rung no reachable state can climb out of, and its d_A

    def reduced_curve(d_A: int) -> np.ndarray:
        nonlocal final
        if system.d_S * d_A > MAX_COMPOSITE_DIM:
            raise TruncationError(f"ancilla truncation did not converge below {tol:g} by d_A = "
                                  f"{d_A // 2}, and d_S x d_A = {system.d_S} x {d_A} is above "
                                  f"MAX_COMPOSITE_DIM = {MAX_COMPOSITE_DIM}")
        if final is None:
            layout = _coordinate_layout(*_composite(EmbeddingSpec(system, bath, d_A), rho_S0))
            sys_state, anc = np.divmod(layout.states, d_A)  # final: nothing on the top climbs
            if not system.V.mat[:, sys_state[anc == d_A - 1]].any():
                final = layout, d_A
        else:
            layout, final_d_A = final
            sys_state, anc = np.divmod(layout.states, final_d_A)
            layout = layout._replace(states=sys_state * d_A + anc, dim=system.d_S * d_A)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", FockTruncationWarning)
            return _reduced_curve(None, None, d_A, grid, cfg, layout)

    prev = reduced_curve(_TRUNCATION_LADDER[0])
    for d_A in _TRUNCATION_LADDER:
        doubled = reduced_curve(2 * d_A)
        # algebra.trace_distance at every instant, in one stacked eigvalsh; both stacks are
        # exactly Hermitian (_reduced_curve sums each transposed pair alike, as c x +- i c x')
        diff = prev - doubled
        dist = 0.5 * float(np.max(np.sum(np.abs(np.linalg.eigvalsh(diff)), axis=-1)))
        if dist < tol:
            return d_A, prev
        prev = doubled
    raise TruncationError(
        f"ancilla truncation did not converge below {tol:g} by d_A = {_TRUNCATION_LADDER[-1]}"
    )
