"""Monte-Carlo wavefunction unraveling of a Lindblad model.

Pure-state trajectories follow the non-Hermitian drift between jumps; the
squared norm of the unnormalized state is the no-jump probability, so each
trajectory runs until the norm crosses a uniform random threshold, locates the
crossing time, collapses through a randomly selected channel and continues.

Trajectories advance together, as the rows of one (n, dim) array. The drift
is time independent and the output grid uniform, so the no-jump propagator
over one grid step (or over an equal fraction of it, a sub-step) is computed
once per ensemble, by running the adaptive integrator on the identity, and
each step is one matrix product. A batch does per-row work only where its
rows differ, and a row is of one of two kinds. A row that has not jumped
yet is on the no-jump path: all such rows hold the same state, the initial
one times a power of the step, so one row carries it for all of them (the
waiting-time picture of the unraveling). Before any state is stored, that
path is walked over the whole grid, each row leaves it at the first
sub-step whose norm is below its threshold, and the first jumps of all rows
are located in one search. A jumped row is placed: it holds its own state
from a sub-step position on, its start. A placed row whose state lies on
states with a zero column of the drift is dark: the step keeps it exactly
and it can never jump again, so its state is broadcast from its start to
the rest of the run. The other placed rows run in waves: a wave carries
them along the grid from their starts, and a row whose norm falls below
its threshold within a sub-step leaves it there while the others go on.
The rows that left are jumped together and placed again, as the first
jumps are. Every search locates each row's jump to its own tolerance on
one fixed Runge-Kutta step from the start of its sub-step (Newton steps,
then bisection, several levels per evaluation call); the rows are
collapsed, given new thresholds and carried to the end of that sub-step,
their new start. So a batch searches once for its first jumps and once per
wave with later ones (again only for a row that jumps twice within one
sub-step), not once per sub-step in which some row jumped. States are
stored a window of instants at a time, of bounded size.

An ensemble is cut into fixed blocks of 128 trajectories, and consecutive
whole blocks into batches; each batch advances as one array, so the waves,
the crossing searches and the state window serve all rows of the batch at
once. Each window is still reduced to ensemble sums block by block. The
batches are dealt round-robin to the calling process and to worker
processes, which send each batch's sums back as it finishes; the caller
merges them in index order as they arrive. Every
trajectory owns numpy's Philox stream keyed by (seed, trajectory index);
draw j of it is word j mod 4 of the Philox4x64-10 block at counter
j // 4 + 1, mapped to [0, 1) as Generator.random does, and the blocks of a
batch's rows are computed together in numpy. No row depends on the other
rows of its array, so ensembles are reproducible bit-for-bit no matter how
the work is batched or scheduled.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from contextlib import closing
from multiprocessing import Pipe, Process

import numpy as np

from .algebra import Operator, _is_int
from .config import ConfigError
from .dynamics import LindbladModel, TimeGrid
from .integrators import Dopri5, IntegratorConfig, fixed_step, iter_instants

_BLOCK = 128  # fixed accumulation block; independent of worker count
_BATCH_BLOCKS = 8  # at most this many blocks advance together as one array
_WINDOW_ENTRIES = 1 << 16  # state entries (instants x rows x dim) a batch holds at once
_JUMP_TIME_REL_TOL = 1e-10
# The grid propagator is solved this much tighter than the run's tolerances.
_PROPAGATOR_TOL_FACTOR = 1e-3
# Newton evaluations per jump-time search before it falls back to bisection.
_NEWTON_STEPS = 8
# Bisection levels a jump-time search resolves per evaluation call after that.
_BISECT_LEVELS = 5
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
        if not (_is_int(self.n_traj) and self.n_traj >= 1):
            raise ValueError(f"n_traj must be an integer >= 1, got {self.n_traj!r}")
        if not (_is_int(self.seed) and 0 <= self.seed < 1 << 64):
            raise ValueError(f"seed must be an integer in [0, 2^64), got {self.seed!r}")


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
    """What a batch needs to advance its rows over the output grid.

    Row states evolve as y -> y @ M.T, so every matrix is stored transposed.
    """

    times: np.ndarray
    drift_t: np.ndarray  # no-jump drift G
    step_t: np.ndarray  # exp(G h) over the sub-step h
    h: float  # grid step / substeps
    substeps: int
    moving: np.ndarray  # (dim,) bool: column j of G is nonzero; step_t keeps the others e_j
    rates: np.ndarray  # (n_channels,)
    jumps_t: np.ndarray  # (n_channels, dim, dim)


def _trajectory_rng(seed: int, traj_index: int) -> np.random.Generator:
    """The random stream of trajectory traj_index; _Streams computes the same draws by index."""
    key = np.array([seed, traj_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


# Philox4x64-10 (Salmon et al., SC'11) in numpy uint64 arithmetic.
_PHILOX_M = np.array([[0xD2E7470EE14C6C93], [0xCA5A826395121157]], dtype=np.uint64)
_PHILOX_W = np.array([[0x9E3779B97F4A7C15], [0xBB67AE8584CAA73B]], dtype=np.uint64)
# The multipliers' 32-bit halves, written out: a uint64 ufunc call at import
# would cost every run about 0.15 MiB of peak RSS.
_PHILOX_M_LO = np.array([[0xE14C6C93], [0x95121157]], dtype=np.uint64)
_PHILOX_M_HI = np.array([[0xD2E7470E], [0xCA5A8263]], dtype=np.uint64)


def _philox(counter: np.ndarray, seed: int, indices: np.ndarray) -> np.ndarray:
    """Philox4x64-10 of counter (c, 0, 0, 0) under key (seed, idx), per pair (c, idx): (n, 4) words.

    The four counter words run as two lanes, (x0, x2), which are multiplied,
    and (x1, x3); the 128-bit products are taken through 32-bit halves.
    """
    n = len(counter)
    key = np.empty((2, n), dtype=np.uint64)
    key[0] = seed
    key[1] = indices
    even = np.zeros((2, n), dtype=np.uint64)
    even[0] = counter
    odd = np.zeros((2, n), dtype=np.uint64)
    for r in range(10):
        if r:
            key += _PHILOX_W
        x_lo = even & 0xFFFFFFFF
        x_hi = even >> 32
        lh = _PHILOX_M_LO * x_hi
        hl = _PHILOX_M_HI * x_lo
        mid = ((_PHILOX_M_LO * x_lo) >> 32) + (lh & 0xFFFFFFFF) + (hl & 0xFFFFFFFF)
        hi = _PHILOX_M_HI * x_hi + (lh >> 32) + (hl >> 32) + (mid >> 32)
        even, odd = hi[::-1] ^ odd ^ key, (_PHILOX_M * even)[::-1]
    return np.stack([even[0], odd[0], even[1], odd[1]], axis=1)


class _Streams:
    """The streams _trajectory_rng(seed, idx) of a batch's rows, computed by draw index.

    numpy's Philox yields the four words of the Philox4x64-10 block at
    counter 1, then at counter 2, and so on, under the key (seed, idx), and
    Generator.random maps a word w to (w >> 11) 2^-53. So draw j of a stream
    is word j % 4 of the block at counter j // 4 + 1, which _philox computes
    for many rows in one pass. Each row keeps the count of draws it has used
    and the block of its latest draw. The first block of every row (its
    threshold and its first jump's two draws) is computed up front; each
    draw call computes, in one pass, the later blocks that its rows reach.
    """

    def __init__(self, seed: int, indices):
        self._seed = seed
        self._indices = np.array(indices, dtype=np.uint64)
        self._drawn = np.zeros(len(self._indices), dtype=np.int64)
        self._block = np.zeros(len(self._indices), dtype=np.int64)
        self._words = _philox(self._block + 1, seed, self._indices)

    def draw(self, rows, n: int = 1) -> np.ndarray:
        """The next n uniform draws of each of the distinct rows' streams, as (len(rows), n)."""
        rows = np.asarray(rows, dtype=np.intp)
        j = self._drawn[rows, None] + np.arange(n)
        self._drawn[rows] += n
        have = self._block[rows]
        offset = j // 4 - have[:, None]  # >= 0: draws never go back
        span = offset[:, -1]
        words = self._words[rows][:, None]
        if span.any():
            words = np.concatenate([words, np.empty((len(rows), span.max(), 4), np.uint64)], axis=1)
            r, o = np.nonzero(np.arange(1, span.max() + 1) <= span[:, None])
            words[r, o + 1] = _philox(have[r] + o + 2, self._seed, self._indices[rows[r]])
            self._block[rows] += span
            self._words[rows] = words[np.arange(len(rows)), span]
        picked = words[np.arange(len(rows))[:, None], offset, j % 4]
        return (picked >> 11) * 2.0 ** -53


def _select_channel(weights: np.ndarray, u):
    """Per row of weights (..., n_channels), the channel that the uniform draw u picks."""
    total = np.sum(weights, axis=-1)
    bad = ~(np.isfinite(total) & (total > 0.0))
    if np.any(bad):
        raise JumpDegeneracyError(
            f"all jump channels have zero or non-finite weight (total {np.asarray(total)[bad][0]})"
        )
    edges = np.cumsum(weights, axis=-1) / np.expand_dims(total, -1)
    picked = np.sum(edges <= np.expand_dims(u, -1), axis=-1)
    return np.minimum(picked, weights.shape[-1] - 1)


def _checked_state(model: LindbladModel, psi0) -> np.ndarray:
    psi0 = np.asarray(psi0, dtype=complex).reshape(-1)
    if psi0.shape[0] != model.dim:
        raise ValueError(f"state dim {psi0.shape[0]} != model dim {model.dim}")
    if not np.all(np.isfinite(psi0)):
        raise ValueError("initial state must have finite entries")
    if abs(np.linalg.norm(psi0) - 1.0) > 1e-9:
        raise ValueError("initial state must be normalized")
    return psi0


def propagator(generator: np.ndarray, h: float, cfg: IntegratorConfig) -> np.ndarray:
    """exp(generator h) by Dopri5's stages run on the identity (iter_instants).

    integrators.propagator takes the same steps as stability polynomials,
    which round differently; the jump times, and with them the ensembles,
    are pinned to the bits of this stage solve.
    """
    identity = np.eye(len(generator), dtype=complex)
    *_, step = iter_instants(lambda y: generator @ y, identity, [0.0, h], cfg)
    return step


def _grid_propagator(model: LindbladModel, cfg: TrajectoryConfig) -> _GridPropagator:
    """No-jump propagator over one grid step, or over 1/m of it.

    m is the number of steps the adaptive integrator takes across one grid
    step at the run's tolerances (and the step cap min(_DT_MAX, max_step)),
    trying the whole step first; a single fixed Runge-Kutta step of size
    grid step / m is then as accurate as the run asks, which the jump-time
    search relies on. The propagator itself comes from a solve on the
    identity at tighter tolerances. The drift can be defective (at the
    exceptional point g = gamma/4), so no eigendecomposition is used.

    State j is fixed when column j of the drift is exactly zero: every stage
    of the solve then keeps column j of the step exactly e_j.
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
        moving=g.any(axis=0),
        rates=np.array([rate for rate, _ in model.jumps], dtype=float),
        jumps_t=jumps_t.reshape(-1, model.dim, model.dim),
    )


def _norm_sq(y: np.ndarray) -> np.ndarray:
    return (y.real ** 2 + y.imag ** 2).sum(axis=-1)


def _rows_times(y: np.ndarray, mat_t: np.ndarray) -> np.ndarray:
    """y @ mat_t with the same rounding for any number of rows.

    numpy hands a single row to BLAS's matrix-vector product, which rounds
    differently from the matrix-matrix one, so a single row goes in twice.
    A trajectory then computes the same bits alone as inside a batch.
    """
    if len(y) == 1:
        return (np.concatenate([y, y]) @ mat_t)[:1]
    return y @ mat_t


def _bisection_points(lo, hi):
    """The midpoints of the next _BISECT_LEVELS bisections of each bracket, (n, 2^L - 1).

    Point 0 is the midpoint of [lo, hi]; the children of point i, 2i + 1
    and 2i + 2, are the midpoints of its lower and upper halves. Each is
    formed as 0.5 * (lo + hi) of its parent's half, as a bisection forms it.
    """
    points = []
    edges = np.stack([lo, hi], axis=1)  # the ends of one level's brackets, in order
    for _ in range(_BISECT_LEVELS):
        mid = 0.5 * (edges[:, :-1] + edges[:, 1:])
        points.append(mid)
        finer = np.empty((len(lo), 2 * edges.shape[1] - 1))
        finer[:, ::2] = edges
        finer[:, 1::2] = mid
        edges = finer
    return np.concatenate(points, axis=1)


def _locate_crossings(rhs, y_a, widths, thresholds, norm_end, tol):
    """Per row, the offset in (0, width] where |y|^2 falls to the threshold, and y there.

    y(tau) is one fixed Runge-Kutta step of size tau from y_a, and norm_end is
    |y|^2 at the far end. Each row keeps a bracket [lo, hi] with
    |y(lo)|^2 >= threshold > |y(hi)|^2 and stops as soon as its bracket is
    narrower than its own tol. The first point is the secant through the
    ends, the next ones Newton steps on the norm, kept tol/2 inside the
    bracket so that a converged row closes its bracket with the following
    evaluation. A row bisects instead when Newton leaves the bracket.

    After _NEWTON_STEPS evaluations a row only bisects, and each bisection
    depends on the last one through the sign of f alone. So the tail
    evaluates the next _BISECT_LEVELS levels of midpoints of every remaining
    bracket (_bisection_points) in one fixed_step call and then walks them
    level by level, with the same update and the same stop as one bisection
    per call: the brackets, and so the offsets, are the same floats.
    """
    k1 = rhs(y_a)
    lo = np.zeros(len(y_a))
    hi = widths.copy()
    f_a = _norm_sq(y_a) - thresholds
    x = np.clip(widths * f_a / (f_a - (norm_end - thresholds)), 0.5 * tol, widths - 0.5 * tol)
    active = np.flatnonzero(hi - lo > tol)
    for steps in range(1, _NEWTON_STEPS + 1):
        if not active.size:
            break
        x_a = x[active]
        tol_a = tol[active]
        y = fixed_step(rhs, y_a[active], x_a[:, None], k1[active])
        f = _norm_sq(y) - thresholds[active]
        above = f >= 0.0
        lo_a = np.where(above, x_a, lo[active])
        hi_a = np.where(above, hi[active], x_a)
        lo[active] = lo_a
        hi[active] = hi_a
        if steps < _NEWTON_STEPS:
            slope = 2.0 * np.sum((y.conj() * rhs(y)).real, axis=-1)
            with np.errstate(divide="ignore", invalid="ignore"):
                newton = x_a - f / slope
            ok = (newton > lo_a) & (newton < hi_a)
            x[active] = np.where(ok, np.clip(newton, lo_a + 0.5 * tol_a, hi_a - 0.5 * tol_a),
                                 0.5 * (lo_a + hi_a))
        active = active[hi_a - lo_a > tol_a]
    while active.size:
        lo_a, hi_a, tol_a = lo[active], hi[active], tol[active]
        points = _bisection_points(lo_a, hi_a)
        per_row = points.shape[1]
        y = fixed_step(rhs, np.repeat(y_a[active], per_row, axis=0), points.reshape(-1, 1),
                       np.repeat(k1[active], per_row, axis=0))
        f = _norm_sq(y).reshape(len(active), per_row) - thresholds[active, None]
        each = np.arange(len(active))
        node = np.zeros(len(active), dtype=np.intp)
        for _ in range(_BISECT_LEVELS):
            going = hi_a - lo_a > tol_a
            x_a = points[each, node]
            above = f[each, node] >= 0.0
            lo_a = np.where(going & above, x_a, lo_a)
            hi_a = np.where(going & ~above, x_a, hi_a)
            node = 2 * node + 1 + above
        lo[active] = lo_a
        hi[active] = hi_a
        active = active[hi_a - lo_a > tol_a]
    tau = 0.5 * (lo + hi)
    return tau, fixed_step(rhs, y_a, tau[:, None], k1)


def _fill_dark(prop, rows, starts, y, first, out):
    """Write the dark rows' states y[rows], normalized, to out from the instant each starts at.

    starts holds every row's sub-step position; a row is written from the
    first instant of out at or after it, by broadcast when that is the
    window's first.
    """
    since = -(-starts[rows] // prop.substeps) - first - 1
    y_dark = y[rows] / np.sqrt(_norm_sq(y[rows]))[:, None]
    held = since <= 0
    out[:, rows[held]] = y_dark[held]
    at_t, at_r = np.nonzero(np.arange(len(out))[:, None] >= since[~held])
    out[at_t, rows[~held][at_r]] = y_dark[~held][at_r]


def _jump(prop, aside, y, starts, dark, thresholds, streams, jump_log):
    """Make the jumps of the rows set aside, one search per round; returns those rows.

    aside holds parts (rows, their states at a sub-step's start, their
    squared norms at its end, its position per row); the rows are sorted
    stably by position. Each row is collapsed at its crossing, given a new
    threshold and carried to the end of its sub-step; a row that crosses
    again is handled again, in the next round. Each jump takes a row's next
    two draws: the channel's, then the new threshold. Jump times are located
    to _JUMP_TIME_REL_TOL * max(|t|, 1), t the end of the row's sub-step.
    Each row takes, in y, its state at the end of that sub-step, which holds
    from the next position on (starts), and its dark flag: whether that
    state lies on fixed states only, which step_t keeps exactly.
    """
    rows, y_a, norm_end, at = (np.concatenate(part) for part in zip(*aside))
    order = np.argsort(at, kind="stable")  # _wave takes ascending starts
    rows, y_a, norm_end, at = rows[order], y_a[order], norm_end[order], at[order]
    rhs = lambda y: _rows_times(y, prop.drift_t)  # noqa: E731
    t_a = prop.times[at // prop.substeps] + (at % prop.substeps) * prop.h
    t_end = t_a + prop.h
    tol = _JUMP_TIME_REL_TOL * np.maximum(np.abs(t_end), 1.0)
    pending = np.arange(len(rows))
    while pending.size:
        owners = rows[pending]
        tau, y_star = _locate_crossings(rhs, y_a[pending], t_end[pending] - t_a[pending],
                                        thresholds[owners], norm_end[pending], tol[pending])
        t_jump = t_a[pending] + tau
        branches = np.einsum("kd,cde->kce", y_star, prop.jumps_t)
        u = streams.draw(owners.tolist(), 2)
        channels = _select_channel(prop.rates * _norm_sq(branches), u[:, 0])
        chosen = branches[np.arange(len(owners)), channels]
        collapsed = chosen / np.sqrt(_norm_sq(chosen))[:, None]
        thresholds[owners] = u[:, 1]
        jump_log.extend(zip(owners.tolist(), t_jump.tolist(), channels.tolist()))
        y_next = fixed_step(rhs, collapsed, (t_end[pending] - t_jump)[:, None])
        y[owners] = y_next
        y_a[pending] = collapsed
        t_a[pending] = t_jump
        norm_end[pending] = _norm_sq(y_next)
        pending = pending[norm_end[pending] < thresholds[owners]]
    starts[rows] = at + 1
    dark[rows] = ~np.any((y[rows] != 0) & prop.moving, axis=1)
    return rows


def _first_jumps(prop, y, starts, dark, thresholds, streams, jump_log):
    """Walk the no-jump path over the whole grid and make every row's first jump on it.

    Every row of y starts in the same state psi0, and a row's product does
    not depend on the other rows of its array, so the one-row chain psi0 S^p
    of _rows_times is every row's state, bit for bit, until its first jump
    (the waiting-time picture of the unraveling). A row leaves at the first
    sub-step whose end norm is below its threshold, which is where the
    running minimum of the chain's norms first falls below it; _jump makes
    all these jumps. Returns the path's states at the grid instants:
    psi0 as given at instant 0, normalized after it.
    """
    sub = prop.substeps
    steps = (len(prop.times) - 1) * sub
    chain = np.empty((steps + 1, y.shape[1]), dtype=complex)
    chain[0] = y[0]
    for s in range(steps):
        chain[s + 1] = _rows_times(chain[s:s + 1], prop.step_t)
    norms = _norm_sq(chain)
    exits = np.searchsorted(-np.minimum.accumulate(norms[1:]), -thresholds, side="right")
    rows = np.flatnonzero(exits < steps)
    at = exits[rows]
    _jump(prop, [(rows, chain[at], norms[at + 1], at)], y, starts, dark, thresholds, streams,
          jump_log)
    path = chain[::sub] / np.sqrt(norms[::sub])[:, None]
    path[0] = chain[0]
    return path


def _wave(prop, rows, starts, y, first, out, thresholds):
    """Carry each rows[j] from sub-step position starts[j], in its state in y, by y @ step_t.

    The rows are placed rows on moving states; each row's product is its
    own, since their states differ. Positions count sub-steps from t0 and
    starts is ascending: a row joins the wave at its start, so the rows
    carried from the window before and the rows whose jump falls within
    this one run in the same wave. The states at instants first + 1 ..
    first + len(out) go to out, normalized, from each row's start on. A row
    whose norm falls below its threshold within a sub-step leaves the wave
    there; the others reach instant first + len(out), where their states go
    back to y. Returns, per sub-step in which rows left, (rows, their states
    at the sub-step's start, their squared norms at its end, its position
    per row); nothing when there are no rows.
    """
    if not rows.size:
        return []
    sub = prop.substeps
    p_first, p_last = first * sub, (first + len(out)) * sub
    positions, heads = np.unique(starts, return_index=True)
    bounds = np.append(heads, len(rows)).tolist()
    joins = {p: (a, b) for p, a, b in zip(positions.tolist(), bounds, bounds[1:])}
    live = rows[:0]
    y_live = y[:0]
    norms = thr = thresholds[live]
    aside = []
    for p in range(int(positions[0]), p_last + 1):
        if p in joins:
            a, b = joins[p]
            joining = y[rows[a:b]]
            live = np.concatenate([live, rows[a:b]])
            y_live = np.concatenate([y_live, joining])
            norms = np.concatenate([norms, _norm_sq(joining)])
            thr = thresholds[live]
        if p % sub == 0 and p > p_first:
            out[p // sub - first - 1, live] = y_live / np.sqrt(norms)[:, None]
        if p == p_last:
            break
        y_a = y_live
        y_live = _rows_times(y_a, prop.step_t)
        norms = _norm_sq(y_live)
        crossed = norms < thr
        if crossed.any():
            aside.append((live[crossed], y_a[crossed], norms[crossed],
                          np.full(np.count_nonzero(crossed), p)))
            kept = ~crossed
            live, y_live, norms, thr = live[kept], y_live[kept], norms[kept], thr[kept]
            if not live.size and p >= positions[-1]:
                break  # every row has left and none is still to join
    y[live] = y_live
    return aside


def _advance(prop, path, starts, dark, y, first, out, thresholds, streams, jump_log):
    """Carry a batch's rows from instant `first` over len(out) grid steps.

    out takes instants first + 1 .. first + len(out); the first window
    starts at first = -1, so its instant 0 is the no-jump path's, psi0 as
    given. A row whose start lies past the window's first sub-step (starts >
    first * substeps) holds the no-jump path there: the path's states are
    broadcast to the whole window, and what its first jump leads to
    overwrites the instants from its start on. Every row whose start lies
    at or before the window's last sub-step is placed, from max(start,
    first * substeps). A dark row (amplitude on fixed states only) is kept
    exactly by y @ step_t, so its norm, which _jump left at or above
    its threshold, never falls again: it is written from its start on
    (_fill_dark). The other rows run in one wave, and the rows that leave
    it are jumped together (_jump) and placed again, until none is left.

    y, starts and dark are updated in place to instant first + len(out).
    """
    p_first, p_last = first * prop.substeps, (first + len(out)) * prop.substeps
    out[:, starts > p_first] = path[first + 1:first + 1 + len(out), None]
    rows = np.flatnonzero(starts <= p_last)
    rows = rows[np.argsort(np.maximum(starts[rows], p_first), kind="stable")]
    while rows.size:
        gone_dark = dark[rows]
        _fill_dark(prop, rows[gone_dark], starts, y, first, out)
        rows = rows[~gone_dark]
        aside = _wave(prop, rows, np.maximum(starts[rows], p_first), y, first, out, thresholds)
        if not aside:
            break
        rows = _jump(prop, aside, y, starts, dark, thresholds, streams, jump_log)


def _run_block(prop: _GridPropagator, psi0: np.ndarray, seed: int, indices, jump_log):
    """Advance the trajectories `indices` together; yield their states a window at a time.

    Each yield is a (w, n, dim) array holding the next w instants; instant 0
    is psi0 for every row, later ones are normalized. A window holds at most
    _WINDOW_ENTRIES entries (at least one instant), so memory does not grow
    with the grid. Before the first window, the no-jump path is walked over
    the whole grid and every row's first jump is made in one search
    (_first_jumps). The walk holds the whole-run chain, (n_t - 1) substeps
    + 1 states of dim entries: substeps / (dim x blocks) of the block sums
    (n_t, dim, dim) per block that _accumulate_batch holds. Only its n_t
    states at the instants are kept for the windows. Each jump is appended
    to jump_log as (row, time, channel), rows counted from 0 within
    `indices`: every row's jumps are in time order, but the log as a whole
    is not, since the first jumps of all rows come before every later jump.
    _advance fills each window, instant 0 included, from the path and each
    row's state, threshold, start and dark flag, kept between windows.
    """
    streams = _Streams(seed, indices)
    n = len(indices)
    n_t = len(prop.times)
    thresholds = streams.draw(range(n))[:, 0]
    y = np.tile(psi0, (n, 1))
    starts = np.full(n, (n_t - 1) * prop.substeps + 1)  # past the last sub-step: on the path
    dark = np.zeros(n, dtype=bool)
    path = _first_jumps(prop, y, starts, dark, thresholds, streams, jump_log)
    width = max(1, _WINDOW_ENTRIES // y.size)
    for start in range(0, n_t, width):
        out = np.empty((min(width, n_t - start),) + y.shape, dtype=complex)
        _advance(prop, path, starts, dark, y, start - 1, out, thresholds, streams, jump_log)
        yield out


def mcwf_run(
    model: LindbladModel,
    psi0: np.ndarray,
    cfg: TrajectoryConfig,
    traj_index: int = 0,
) -> TrajectoryResult:
    """One quantum-jump trajectory, fully determined by (cfg.seed, traj_index)."""
    if not (_is_int(traj_index) and 0 <= traj_index < 1 << 64):
        raise ValueError(f"traj_index must be an integer in [0, 2^64), got {traj_index!r}")
    psi0 = _checked_state(model, psi0)
    prop = _grid_propagator(model, cfg)
    jump_log: list[tuple[int, float, int]] = []
    states = np.concatenate([w[:, 0] for w in _run_block(prop, psi0, cfg.seed, [traj_index],
                                                         jump_log)])
    return TrajectoryResult(
        times=prop.times,
        states=states,
        jump_times=np.array([t for _, t, _ in jump_log]),
        jump_channels=np.array([c for _, _, c in jump_log], dtype=int),
    )


def _accumulate_batch(args):
    """Per block of the batch: its size, sum of rho, per-observable mean and
    centred sum of squares (M2) per instant, and its jump-count histogram.

    The batch's trajectories advance together; each window is reduced block
    by block, in one pass on a contiguous copy of the block's rows, so a
    block's sums do not depend on the batch it ran in.
    """
    prop, psi0, seed, obs_mats, start, stop = args
    n_t = len(prop.times)
    dim = len(psi0)
    edges = list(range(0, stop - start, _BLOCK)) + [stop - start]
    blocks = list(zip(edges, edges[1:]))
    rho_sum = np.empty((len(blocks), n_t, dim, dim), dtype=complex)
    obs_mean = np.empty((len(blocks), len(obs_mats), n_t), dtype=complex)
    obs_m2 = np.empty((len(blocks), len(obs_mats), n_t), dtype=float)
    jump_log: list[tuple[int, float, int]] = []
    first = 0
    for window in _run_block(prop, psi0, seed, range(start, stop), jump_log):
        at = slice(first, first + len(window))
        for b, (lo, hi) in enumerate(blocks):
            psi = np.ascontiguousarray(window[:, lo:hi])
            psi_conj = psi.conj()
            np.matmul(psi.transpose(0, 2, 1), psi_conj, out=rho_sum[b, at])
            for j, a in enumerate(obs_mats):
                vals = np.sum((psi_conj @ a) * psi, axis=2)
                mean = vals.mean(axis=1)
                obs_mean[b, j, at] = mean
                obs_m2[b, j, at] = np.sum(np.abs(vals - mean[:, None]) ** 2, axis=1)
        first += len(window)
        del window, psi, psi_conj  # _run_block allocates the next window before these are rebound
    rows = np.array([row for row, _, _ in jump_log], dtype=np.intp)
    jumps_per_row = np.bincount(rows, minlength=stop - start)
    return [(hi - lo, rho_sum[b], obs_mean[b], obs_m2[b], np.bincount(jumps_per_row[lo:hi]))
            for b, (lo, hi) in enumerate(blocks)]


def _cpu_count() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _worker_count(n_blocks: int) -> int:
    env = os.environ.get("PSEUDOMODE_NUM_THREADS")
    if env is None:
        workers = _cpu_count()
    else:
        try:
            workers = int(env)
        except ValueError:
            workers = 0
        if workers < 1:
            raise ConfigError(f"PSEUDOMODE_NUM_THREADS must be a positive integer, got {env!r}")
    return max(1, min(workers, n_blocks))


def _serve(batches, conn) -> None:
    """Worker body: send each batch's _accumulate_batch result down conn as it finishes.

    An exception is sent in place of the result, with its traceback as text,
    and the worker stops there.
    """
    try:
        for batch in batches:
            conn.send((True, _accumulate_batch(batch)))
    except Exception as exc:
        import traceback  # only here: importing it costs every run about 0.2 MiB

        conn.send((False, (exc, traceback.format_exc())))
    finally:
        conn.close()


def _receive(proc, conn):
    """The next batch result from worker proc; its exception is raised here."""
    try:
        ok, value = conn.recv()
    except EOFError:
        proc.join()
        raise RuntimeError(
            f"ensemble worker exited with code {proc.exitcode} before sending its batch"
        ) from None
    if not ok:
        exc, worker_traceback = value
        raise exc from RuntimeError(f"in the ensemble worker:\n{worker_traceback}")
    return value


def _run_batches(batches, processes: int):
    """Yield _accumulate_batch of each batch, in index order.

    Batch i runs in process i % processes: process 0 is the caller, which
    computes its own share between reads, and the others are workers that
    send one message per batch down a one-way pipe. A worker blocks once
    its pipe is full until the caller reads, so what is in flight per
    worker is bounded by one result and the pipe's buffer, not by the
    ensemble size. Every worker is joined on the way out; on an error, or
    when the generator is closed early, the workers are terminated first.
    """
    workers = []
    try:
        for w in range(1, processes):
            reader, writer = Pipe(duplex=False)
            proc = Process(target=_serve, args=(batches[w::processes], writer), daemon=True)
            proc.start()
            workers.append((proc, reader))
            writer.close()  # the worker holds the only write end: EOF once it exits
        for i, batch in enumerate(batches):
            w = i % processes
            yield _accumulate_batch(batch) if w == 0 else _receive(*workers[w - 1])
    except BaseException:
        for proc, _ in workers:
            proc.terminate()
        raise
    finally:
        for proc, reader in workers:
            proc.join()
            reader.close()


def _merge(parts):
    """(n, rho sum, means, M2, jump histogram) of the batches' blocks, merged as they arrive."""
    n, hist = 0, np.zeros(0, dtype=np.int64)
    for n_b, rho_b, mean_b, m2_b, hist_b in (block for part in parts for block in part):
        if n == 0:
            n, rho_sum, means, m2 = n_b, rho_b, mean_b, m2_b
        else:
            total = n + n_b
            delta = mean_b - means
            means = means + delta * (n_b / total)
            m2 = m2 + m2_b + np.abs(delta) ** 2 * (n * n_b / total)
            rho_sum = rho_sum + rho_b
            n = total
        hist = np.pad(hist, (0, max(0, len(hist_b) - len(hist))))
        hist[: len(hist_b)] += hist_b
    return n, rho_sum, means, m2, hist


def ensemble_average(
    model: LindbladModel,
    psi0: np.ndarray,
    cfg: TrajectoryConfig,
    observables=(),
) -> EnsembleStats:
    """Trajectory-ensemble means with per-instant standard errors.

    Trajectories are cut into fixed blocks of 128, and consecutive blocks
    into batches of at most _BATCH_BLOCKS, and fewer when that leaves a
    worker without a batch. Each batch advances as one array. The calling
    process runs one share of the batches itself and worker processes run
    the others (_run_batches). The results of each block (sums of rho,
    observable means and centred sums of squares) are still reduced per
    block and merged in index order, as they arrive, with the pairwise
    update of Chan, Golub & LeVeque, so the result is bit-identical for any
    worker count (set PSEUDOMODE_NUM_THREADS to cap parallelism; by
    default, one share per CPU the process may run on). The batches follow
    the requested worker count, but the caller and its workers together
    never outnumber the process's CPUs, so at most CPUs - 1 workers start.
    """
    psi0 = _checked_state(model, psi0)
    for j, a in enumerate(observables):
        if not isinstance(a, Operator):
            raise ValueError(f"observable {j} must be an Operator, got {type(a).__name__}")
        if a.dim != model.dim:
            raise ValueError(f"observable {j} dim {a.dim} != model dim {model.dim}")
    prop = _grid_propagator(model, cfg)
    obs_mats = [a.mat for a in observables]
    n_blocks = -(-cfg.n_traj // _BLOCK)
    workers = _worker_count(n_blocks)
    per_batch = _BLOCK * min(_BATCH_BLOCKS, -(-n_blocks // workers))
    batches = [
        (prop, psi0, cfg.seed, obs_mats, start, min(start + per_batch, cfg.n_traj))
        for start in range(0, cfg.n_traj, per_batch)
    ]
    processes = min(workers, len(batches), _cpu_count())
    with closing(_run_batches(batches, processes)) as parts:
        n, rho_sum, means, m2, hist = _merge(parts)

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
