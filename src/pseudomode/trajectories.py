"""Monte-Carlo wavefunction unraveling of a Lindblad model.

Pure-state trajectories follow the non-Hermitian drift between jumps; the
squared norm of the unnormalized state is the no-jump probability, so each
trajectory runs until the norm crosses a uniform random threshold, locates the
crossing time, collapses through a randomly selected channel and continues.

Trajectories advance together in blocks, as the rows of one (n, dim) array.
The drift is time independent and the output grid uniform, so the no-jump
propagator over one grid step (or over an equal fraction of it) is computed
once per ensemble, by running the adaptive integrator on the identity, and
each step is one matrix product. Only rows whose norm fell below their
threshold take further work: their jump times are located together on a
fixed Runge-Kutta step from the start of the step, each row to its own
tolerance. Every trajectory owns a counter-based random stream keyed by
(seed, trajectory index) and no row depends on the other rows of its block,
so ensembles are reproducible bit-for-bit no matter how the work is
scheduled.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from multiprocessing import Pool

import numpy as np

from .config import ConfigError
from .dynamics import LindbladModel, TimeGrid
from .integrators import Dopri5, IntegratorConfig, fixed_step, propagator

_BLOCK = 128  # fixed accumulation block; independent of worker count
_JUMP_TIME_REL_TOL = 1e-10
# The grid propagator is solved this much tighter than the run's tolerances.
_PROPAGATOR_TOL_FACTOR = 1e-3
# Newton evaluations per jump-time search before it falls back to bisection.
_NEWTON_STEPS = 8
# Step cap of the adaptive probe that sizes the grid propagator's substeps.
_DT_MAX = 0.5


class JumpDegeneracyError(RuntimeError):
    """A jump was triggered but every channel has zero weight."""


@dataclass(frozen=True)
class TrajectoryConfig:
    n_traj: int
    seed: int
    grid: TimeGrid
    integrator: IntegratorConfig = field(
        default_factory=lambda: IntegratorConfig(rel_tol=1e-8, abs_tol=1e-10)
    )

    def __post_init__(self):
        if self.n_traj < 1:
            raise ValueError(f"need at least one trajectory, got {self.n_traj}")


@dataclass(frozen=True, eq=False)
class TrajectoryResult:
    times: np.ndarray
    states: np.ndarray  # (n_instants, dim), normalized
    jump_times: np.ndarray
    jump_channels: np.ndarray


@dataclass(frozen=True, eq=False)
class EnsembleStats:
    times: np.ndarray
    n_traj: int
    mean_states: np.ndarray  # (n_instants, dim, dim)
    means: np.ndarray  # (n_observables, n_instants), complex
    stderrs: np.ndarray  # (n_observables, n_instants); nan when n_traj == 1
    jump_histogram: np.ndarray  # trajectory counts indexed by jump count


@dataclass(frozen=True, eq=False)
class _GridPropagator:
    """What a block needs to advance its rows over the output grid.

    Row states evolve as y -> y @ M.T, so every matrix is stored transposed.
    """

    times: np.ndarray
    drift_t: np.ndarray  # no-jump drift G
    step_t: np.ndarray  # exp(G h) over the sub-step h
    h: float  # grid step / substeps
    substeps: int
    rates: np.ndarray  # (n_channels,)
    jumps_t: np.ndarray  # (n_channels, dim, dim)


def _trajectory_rng(seed: int, traj_index: int) -> np.random.Generator:
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, traj_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _select_channel(weights: np.ndarray, u: float) -> int:
    total = float(np.sum(weights))
    if not np.isfinite(total) or total <= 0.0:
        raise JumpDegeneracyError(
            f"all jump channels have zero or non-finite weight (total {total})"
        )
    edges = np.cumsum(weights) / total
    return int(np.searchsorted(edges, u, side="right").clip(max=len(weights) - 1))


def _checked_state(model: LindbladModel, psi0) -> np.ndarray:
    psi0 = np.asarray(psi0, dtype=complex).reshape(-1)
    if psi0.shape[0] != model.dim:
        raise ValueError(f"state dim {psi0.shape[0]} != model dim {model.dim}")
    if abs(np.linalg.norm(psi0) - 1.0) > 1e-9:
        raise ValueError("initial state must be normalized")
    return psi0


def _grid_propagator(model: LindbladModel, cfg: TrajectoryConfig) -> _GridPropagator:
    """No-jump propagator over one grid step, or over 1/m of it.

    m is the number of steps the adaptive integrator takes across one grid
    step at the run's tolerances (and the step cap min(_DT_MAX, max_step)),
    trying the whole step first; a single fixed Runge-Kutta step of size
    grid step / m is then as accurate as the run asks, which the jump-time
    search relies on. The propagator itself comes from a solve on the
    identity at tighter tolerances. The drift can be defective (at the
    exceptional point g = gamma/4), so no eigendecomposition is used.
    """
    g = model.drift
    rhs = lambda y: g @ y  # noqa: E731
    identity = np.eye(model.dim, dtype=complex)
    dt = cfg.grid.dt
    run = cfg.integrator
    probe = Dopri5(rhs, 0.0, identity, IntegratorConfig(
        rel_tol=run.rel_tol, abs_tol=run.abs_tol,
        max_step=min(_DT_MAX, run.max_step), initial_step=dt,
    ))
    substeps = 0
    while probe.t < dt:
        probe.step(dt)
        substeps += 1
    h = dt / substeps
    tight = IntegratorConfig(
        rel_tol=max(run.rel_tol * _PROPAGATOR_TOL_FACTOR, 1e-14),
        abs_tol=max(run.abs_tol * _PROPAGATOR_TOL_FACTOR, 1e-16),
        max_step=h, initial_step=h,
    )
    u = propagator(g, h, tight)
    jumps_t = np.array([L.mat.T for _, L in model.jumps], dtype=complex)
    return _GridPropagator(
        times=cfg.grid.times(),
        drift_t=np.ascontiguousarray(g.T),
        step_t=np.ascontiguousarray(u.T),
        h=h,
        substeps=substeps,
        rates=np.array([rate for rate, _ in model.jumps], dtype=float),
        jumps_t=jumps_t.reshape(-1, model.dim, model.dim),
    )


def _norm_sq(y: np.ndarray) -> np.ndarray:
    return (y.real ** 2 + y.imag ** 2).sum(axis=-1)


def _locate_crossings(rhs, y_a, widths, thresholds, norm_end, tol):
    """Per row, the offset in (0, width] where |y|^2 falls to the threshold, and y there.

    y(tau) is one fixed Runge-Kutta step of size tau from y_a, and norm_end is
    |y|^2 at the far end. Each row keeps a bracket [lo, hi] with
    |y(lo)|^2 >= threshold > |y(hi)|^2 and stops as soon as its own bracket
    is narrower than tol. The first point is the secant through the ends, the
    next ones Newton steps on the norm, kept tol/2 inside the bracket so that
    a converged row closes its bracket with the following evaluation. A row
    bisects instead when Newton leaves the bracket, and after _NEWTON_STEPS
    evaluations.
    """
    k1 = rhs(y_a)
    lo = np.zeros(len(y_a))
    hi = widths.copy()
    f_a = _norm_sq(y_a) - thresholds
    x = np.clip(widths * f_a / (f_a - (norm_end - thresholds)), 0.5 * tol, widths - 0.5 * tol)
    steps = 0
    active = np.flatnonzero(hi - lo > tol)
    while active.size:
        steps += 1
        x_a = x[active]
        y = fixed_step(rhs, y_a[active], x_a[:, None], k1[active])
        f = _norm_sq(y) - thresholds[active]
        above = f >= 0.0
        lo_a = np.where(above, x_a, lo[active])
        hi_a = np.where(above, hi[active], x_a)
        lo[active] = lo_a
        hi[active] = hi_a
        slope = 2.0 * np.sum((y.conj() * rhs(y)).real, axis=-1)
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = x_a - f / slope
        ok = (newton > lo_a) & (newton < hi_a) & (steps < _NEWTON_STEPS)
        x[active] = np.where(ok, np.clip(newton, lo_a + 0.5 * tol, hi_a - 0.5 * tol),
                             0.5 * (lo_a + hi_a))
        active = active[hi_a - lo_a > tol]
    tau = 0.5 * (lo + hi)
    return tau, fixed_step(rhs, y_a, tau[:, None], k1)


def _jump_rows(prop, rows, y_a, norm_end, t_a, thresholds, rngs, jump_log):
    """States at t_a + h of the rows whose norm crossed within (t_a, t_a + h].

    y_a holds their states at t_a and norm_end their squared norms at t_a + h.
    Each row is collapsed at its crossing, given a new threshold and carried
    to the end of the sub-step; a row that crosses again is handled again.
    """
    rhs = lambda y: y @ prop.drift_t  # noqa: E731
    t_end = t_a + prop.h
    tol = _JUMP_TIME_REL_TOL * max(abs(t_end), 1.0)
    starts = np.full(len(rows), t_a)
    y_start = y_a.copy()
    y_end = np.empty_like(y_a)
    norm_end = norm_end.copy()
    pending = np.arange(len(rows))
    while pending.size:
        owners = rows[pending]
        widths = t_end - starts[pending]
        tau, y_star = _locate_crossings(rhs, y_start[pending], widths,
                                        thresholds[owners], norm_end[pending], tol)
        t_jump = starts[pending] + tau
        branches = np.matmul(y_star[:, None, :], prop.jumps_t)  # (k, n_channels, dim)
        weights = prop.rates * _norm_sq(branches)
        collapsed = np.empty_like(y_star)
        for j, row in enumerate(owners):
            rng = rngs[row]
            channel = _select_channel(weights[j], rng.random())
            collapsed[j] = branches[j, channel] / np.linalg.norm(branches[j, channel])
            thresholds[row] = rng.random()
            jump_log.append((int(row), float(t_jump[j]), channel))
        remaining = (t_end - t_jump)[:, None]
        y_next = fixed_step(rhs, collapsed, remaining)
        y_end[pending] = y_next
        y_start[pending] = collapsed
        starts[pending] = t_jump
        norm_end[pending] = _norm_sq(y_next)
        pending = pending[norm_end[pending] < thresholds[owners]]
    return y_end


def _run_block(prop: _GridPropagator, psi0: np.ndarray, seed: int, indices, jump_log):
    """Advance the trajectories `indices` together; yield their states at each instant.

    The first yield is psi0 for every row, later ones are normalized (n, dim)
    arrays. Each jump is appended to jump_log as (row, time, channel), rows
    counted from 0 within the block.
    """
    rngs = [_trajectory_rng(seed, idx) for idx in indices]
    thresholds = np.array([rng.random() for rng in rngs])
    y = np.tile(psi0, (len(rngs), 1))
    yield y
    times = prop.times
    for i in range(1, len(times)):
        for s in range(prop.substeps):
            y_a = y
            y = y_a @ prop.step_t
            norms = _norm_sq(y)
            crossed = np.flatnonzero(norms < thresholds)
            if crossed.size:
                t_a = times[i - 1] + s * prop.h
                y[crossed] = _jump_rows(prop, crossed, y_a[crossed], norms[crossed], t_a,
                                        thresholds, rngs, jump_log)
        yield y / np.sqrt(_norm_sq(y))[:, None]


def mcwf_run(
    model: LindbladModel,
    psi0: np.ndarray,
    cfg: TrajectoryConfig,
    traj_index: int = 0,
) -> TrajectoryResult:
    """One quantum-jump trajectory, fully determined by (cfg.seed, traj_index)."""
    psi0 = _checked_state(model, psi0)
    prop = _grid_propagator(model, cfg)
    jump_log: list[tuple[int, float, int]] = []
    states = np.array([y[0] for y in _run_block(prop, psi0, cfg.seed, [traj_index], jump_log)])
    return TrajectoryResult(
        times=prop.times,
        states=states,
        jump_times=np.array([t for _, t, _ in jump_log]),
        jump_channels=np.array([c for _, _, c in jump_log], dtype=int),
    )


def _accumulate_block(args):
    """Sum of rho, and per-observable mean and centred sum of squares (M2), per instant."""
    prop, psi0, seed, obs_mats, start, stop = args
    n_t = len(prop.times)
    dim = len(psi0)
    rho_sum = np.empty((n_t, dim, dim), dtype=complex)
    obs_mean = np.empty((len(obs_mats), n_t), dtype=complex)
    obs_m2 = np.empty((len(obs_mats), n_t), dtype=float)
    jump_log: list[tuple[int, float, int]] = []
    for i, psi in enumerate(_run_block(prop, psi0, seed, range(start, stop), jump_log)):
        rho_sum[i] = psi.T @ psi.conj()
        for j, a in enumerate(obs_mats):
            vals = np.sum((psi.conj() @ a) * psi, axis=1)
            mean = vals.mean()
            obs_mean[j, i] = mean
            obs_m2[j, i] = np.sum(np.abs(vals - mean) ** 2)
    rows = np.array([row for row, _, _ in jump_log], dtype=np.intp)
    jumps_per_row = np.bincount(rows, minlength=stop - start)
    return stop - start, rho_sum, obs_mean, obs_m2, np.bincount(jumps_per_row)


def _worker_count(n_blocks: int) -> int:
    env = os.environ.get("PSEUDOMODE_NUM_THREADS")
    if env is not None:
        try:
            workers = int(env)
        except ValueError:
            workers = 0
        if workers < 1:
            raise ConfigError(f"PSEUDOMODE_NUM_THREADS must be a positive integer, got {env!r}")
    else:
        workers = os.cpu_count() or 1
    return max(1, min(workers, n_blocks))


def ensemble_average(
    model: LindbladModel,
    psi0: np.ndarray,
    cfg: TrajectoryConfig,
    observables=(),
) -> EnsembleStats:
    """Trajectory-ensemble means with per-instant standard errors.

    Trajectories run in fixed blocks of 128, and the block results (sums of
    rho, observable means and centred sums of squares) are merged in index
    order with the pairwise update of Chan, Golub & LeVeque, so the result is
    bit-identical for any worker count (set PSEUDOMODE_NUM_THREADS to cap
    parallelism).
    """
    psi0 = _checked_state(model, psi0)
    prop = _grid_propagator(model, cfg)
    obs_mats = [a.mat for a in observables]
    blocks = [
        (prop, psi0, cfg.seed, obs_mats, start, min(start + _BLOCK, cfg.n_traj))
        for start in range(0, cfg.n_traj, _BLOCK)
    ]
    workers = _worker_count(len(blocks))
    if workers == 1:
        partials = [_accumulate_block(b) for b in blocks]
    else:
        with Pool(processes=workers) as pool:
            partials = pool.map(_accumulate_block, blocks)

    hist = np.zeros(max(len(p[4]) for p in partials), dtype=np.int64)
    n, rho_sum, means, m2, _ = partials[0]
    for n_b, rho_b, mean_b, m2_b, _ in partials[1:]:
        total = n + n_b
        delta = mean_b - means
        means = means + delta * (n_b / total)
        m2 = m2 + m2_b + np.abs(delta) ** 2 * (n * n_b / total)
        rho_sum = rho_sum + rho_b
        n = total
    for *_, hist_b in partials:
        hist[: len(hist_b)] += hist_b

    if n > 1:
        stderrs = np.sqrt(m2 / ((n - 1) * n))
    else:
        stderrs = np.full_like(m2, np.nan)
    return EnsembleStats(
        times=prop.times,
        n_traj=n,
        mean_states=rho_sum / n,
        means=means,
        stderrs=stderrs,
        jump_histogram=hist,
    )
