"""Monte-Carlo wavefunction unraveling of a Lindblad model.

Pure-state trajectories follow the non-Hermitian drift between jumps; the
squared norm of the unnormalized state is the no-jump probability, so each
trajectory runs until the norm crosses a uniform random threshold, locates the
crossing time, collapses through a randomly selected channel and continues.

Trajectories advance together, as the rows of one (n, dim) array. The drift
is time independent and the output grid uniform, so the no-jump propagator
over one grid step (or over an equal fraction of it, a sub-step) is computed
once per ensemble, by running the adaptive integrator on the identity, and
each step is one matrix product. The rows run in waves. The first wave
carries every row along the grid; a row whose norm falls below its threshold
within a sub-step leaves the wave there, and the others go on. At the end of
the wave, the jump times of all rows that left are located together, each
row to its own tolerance on one fixed Runge-Kutta step from the start of its
sub-step; they are collapsed, given new thresholds and carried to the end of
that sub-step, where the next wave resumes them. So the array searches once
per wave (again only for a row that jumps twice within one sub-step), not
once per sub-step in which some row jumped. States are stored a window of
instants at a time, of bounded size.

An ensemble is cut into fixed blocks of 128 trajectories, and consecutive
whole blocks into batches; each batch advances as one array, so the waves,
the crossing searches and the state window serve all rows of the batch at
once. Each window is still reduced to ensemble sums block by block. The
batches are dealt round-robin to the calling process and to worker
processes, which send each batch's sums back as it finishes; the caller
merges them in index order as they arrive. Every
trajectory owns a counter-based random stream keyed by (seed, trajectory
index), read by draw index from one Philox generator per batch, and no row
depends on the other rows of its array, so ensembles are reproducible
bit-for-bit no matter how the work is batched or scheduled.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from contextlib import closing
from multiprocessing import Pipe, Process

import numpy as np

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
        if not (isinstance(self.seed, (int, np.integer)) and 0 <= self.seed < 1 << 64):
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
    rates: np.ndarray  # (n_channels,)
    jumps_t: np.ndarray  # (n_channels, dim, dim)


def _trajectory_rng(seed: int, traj_index: int) -> np.random.Generator:
    """The random stream of trajectory traj_index; _Streams reads the same draws by index."""
    key = np.array([seed, traj_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


class _Streams:
    """The streams _trajectory_rng(seed, idx) of a batch's rows, read from one Philox.

    Philox turns counter c into four words, so draw j of a stream is the
    (j mod 4 + 1)-th draw after setting the counter to j // 4 with an empty
    buffer; that costs one state assignment instead of building a Generator
    per trajectory. Each row keeps the count of draws it has used.
    """

    def __init__(self, seed: int, indices):
        self._counter = np.zeros(4, dtype=np.uint64)
        self._key = np.array([seed, 0], dtype=np.uint64)
        self._state = {
            "bit_generator": "Philox",
            "state": {"counter": self._counter, "key": self._key},
            "buffer": np.zeros(4, dtype=np.uint64),
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        self._bitgen = np.random.Philox(key=self._key)
        self._gen = np.random.Generator(self._bitgen)
        self._indices = indices
        self._drawn = [0] * len(self._indices)

    def draw(self, rows, n: int = 1) -> np.ndarray:
        """The next n uniform draws of each row's stream, as (len(rows), n)."""
        out = np.empty((len(rows), n))
        for k, row in enumerate(rows):
            j = self._drawn[row]
            self._counter[0] = j // 4
            self._key[1] = self._indices[row]
            self._bitgen.state = self._state
            out[k] = self._gen.random(j % 4 + n)[j % 4:]
            self._drawn[row] = j + n
        return out


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


def _rows_times(y: np.ndarray, mat_t: np.ndarray) -> np.ndarray:
    """y @ mat_t with the same rounding for any number of rows.

    numpy hands a single row to BLAS's matrix-vector product, which rounds
    differently from the matrix-matrix one, so a single row goes in twice.
    A trajectory then computes the same bits alone as inside a batch.
    """
    if len(y) == 1:
        return (np.concatenate([y, y]) @ mat_t)[:1]
    return y @ mat_t


def _locate_crossings(rhs, y_a, widths, thresholds, norm_end, tol):
    """Per row, the offset in (0, width] where |y|^2 falls to the threshold, and y there.

    y(tau) is one fixed Runge-Kutta step of size tau from y_a, and norm_end is
    |y|^2 at the far end. Each row keeps a bracket [lo, hi] with
    |y(lo)|^2 >= threshold > |y(hi)|^2 and stops as soon as its bracket is
    narrower than its own tol. The first point is the secant through the
    ends, the next ones Newton steps on the norm, kept tol/2 inside the
    bracket so that a converged row closes its bracket with the following
    evaluation. A row bisects instead when Newton leaves the bracket, and
    after _NEWTON_STEPS evaluations.
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
        tol_a = tol[active]
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
        x[active] = np.where(ok, np.clip(newton, lo_a + 0.5 * tol_a, hi_a - 0.5 * tol_a),
                             0.5 * (lo_a + hi_a))
        active = active[hi_a - lo_a > tol_a]
    tau = 0.5 * (lo + hi)
    return tau, fixed_step(rhs, y_a, tau[:, None], k1)


def _jump_rows(prop, rows, y_a, norm_end, t_a, thresholds, streams, jump_log):
    """States at t_a + h of the rows whose norm crossed within (t_a, t_a + h].

    t_a holds each row's sub-step start, y_a its state there and norm_end its
    squared norm at t_a + h. Each row is collapsed at its crossing, given a
    new threshold and carried to the end of its sub-step; a row that crosses
    again is handled again. Each jump takes a row's next two draws: the
    channel's, then the new threshold. Jump times are located to
    _JUMP_TIME_REL_TOL * max(|t_a + h|, 1), per row.
    """
    rhs = lambda y: _rows_times(y, prop.drift_t)  # noqa: E731
    t_end = t_a + prop.h
    tol = _JUMP_TIME_REL_TOL * np.maximum(np.abs(t_end), 1.0)
    starts = t_a.copy()
    y_start = y_a.copy()
    y_end = np.empty_like(y_a)
    norm_end = norm_end.copy()
    pending = np.arange(len(rows))
    while pending.size:
        owners = rows[pending]
        tau, y_star = _locate_crossings(rhs, y_start[pending], t_end[pending] - starts[pending],
                                        thresholds[owners], norm_end[pending], tol[pending])
        t_jump = starts[pending] + tau
        branches = np.einsum("kd,cde->kce", y_star, prop.jumps_t)
        u = streams.draw(owners.tolist(), 2)
        channels = _select_channel(prop.rates * _norm_sq(branches), u[:, 0])
        chosen = branches[np.arange(len(owners)), channels]
        collapsed = chosen / np.sqrt(_norm_sq(chosen))[:, None]
        thresholds[owners] = u[:, 1]
        jump_log.extend(zip(owners.tolist(), t_jump.tolist(), channels.tolist()))
        y_next = fixed_step(rhs, collapsed, (t_end[pending] - t_jump)[:, None])
        y_end[pending] = y_next
        y_start[pending] = collapsed
        starts[pending] = t_jump
        norm_end[pending] = _norm_sq(y_next)
        pending = pending[norm_end[pending] < thresholds[owners]]
    return y_end


def _wave(prop, rows, starts, y0, first, out, thresholds, y_last):
    """Carry each rows[j] from sub-step position starts[j], in state y0[j], by y @ step_t.

    Positions count sub-steps from t0 and starts is ascending. The states at
    instants first + 1 .. first + len(out) go to out, normalized. A row whose
    norm falls below its threshold within a sub-step leaves the wave there;
    the others reach instant first + len(out), where their states go to
    y_last. Returns, per sub-step in which rows left, (rows, their states at
    the sub-step's start, their squared norms at its end, its position per row).
    """
    sub = prop.substeps
    p_first = first * sub
    p_last = (first + len(out)) * sub
    positions, heads = np.unique(starts, return_index=True)
    bounds = np.append(heads, len(rows)).tolist()
    joins = {p: (a, b) for p, a, b in zip(positions.tolist(), bounds, bounds[1:])}
    live = rows[:0]
    y = y0[:0]
    norms = thr = thresholds[live]
    aside = []
    for p in range(int(positions[0]), p_last + 1):
        if p in joins:
            a, b = joins[p]
            live = np.concatenate([live, rows[a:b]])
            y = np.concatenate([y, y0[a:b]])
            norms = np.concatenate([norms, _norm_sq(y0[a:b])])
            thr = thresholds[live]
        if p % sub == 0 and p > p_first:
            out[p // sub - first - 1, live] = y / np.sqrt(norms)[:, None]
        if p == p_last:
            break
        y_a = y
        y = _rows_times(y_a, prop.step_t)
        norms = _norm_sq(y)
        crossed = norms < thr
        if crossed.any():
            aside.append((live[crossed], y_a[crossed], norms[crossed],
                          np.full(np.count_nonzero(crossed), p)))
            kept = ~crossed
            live, y, norms, thr = live[kept], y[kept], norms[kept], thr[kept]
            if not live.size and p >= positions[-1]:
                break  # every row has left and none is still to join
    y_last[live] = y
    return aside


def _advance(prop, y, first, out, thresholds, streams, jump_log):
    """Carry the rows y from instant `first` over len(out) grid steps, in waves.

    The first wave carries every row; each later wave carries the rows that
    left the one before, from the end of the sub-step in which they left,
    after one _jump_rows call for all of them. Returns the states at instant
    first + len(out), not normalized.
    """
    sub = prop.substeps
    y_last = np.empty_like(y)
    rows = np.arange(len(y))
    starts = np.full(len(y), first * sub)
    while True:
        aside = _wave(prop, rows, starts, y, first, out, thresholds, y_last)
        if not aside:
            return y_last
        rows, y_a, norm_end, at = (np.concatenate(part) for part in zip(*aside))
        t_a = prop.times[at // sub] + (at % sub) * prop.h
        y = _jump_rows(prop, rows, y_a, norm_end, t_a, thresholds, streams, jump_log)
        starts = at + 1


def _run_block(prop: _GridPropagator, psi0: np.ndarray, seed: int, indices, jump_log):
    """Advance the trajectories `indices` together; yield their states a window at a time.

    Each yield is a (w, n, dim) array holding the next w instants; instant 0
    is psi0 for every row, later ones are normalized. A window holds at most
    _WINDOW_ENTRIES entries (at least one instant), so memory does not grow
    with the grid. Each jump is appended to jump_log as (row, time,
    channel), rows counted from 0 within `indices`.
    """
    streams = _Streams(seed, indices)
    rows = range(len(indices))
    thresholds = streams.draw(rows)[:, 0]
    y = np.tile(psi0, (len(rows), 1))
    n_t = len(prop.times)
    width = max(1, _WINDOW_ENTRIES // y.size)
    for start in range(0, n_t, width):
        out = np.empty((min(width, n_t - start),) + y.shape, dtype=complex)
        if start == 0:
            out[0] = y
            y = _advance(prop, y, 0, out[1:], thresholds, streams, jump_log)
        else:
            y = _advance(prop, y, start - 1, out, thresholds, streams, jump_log)
        yield out


def mcwf_run(
    model: LindbladModel,
    psi0: np.ndarray,
    cfg: TrajectoryConfig,
    traj_index: int = 0,
) -> TrajectoryResult:
    """One quantum-jump trajectory, fully determined by (cfg.seed, traj_index)."""
    if not (isinstance(traj_index, (int, np.integer)) and 0 <= traj_index < 1 << 64):
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
            np.matmul(psi.transpose(0, 2, 1), psi.conj(), out=rho_sum[b, at])
            for j, a in enumerate(obs_mats):
                vals = np.sum((psi.conj() @ a) * psi, axis=2)
                mean = vals.mean(axis=1)
                obs_mean[b, j, at] = mean
                obs_m2[b, j, at] = np.sum(np.abs(vals - mean[:, None]) ** 2, axis=1)
        first += len(window)
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
