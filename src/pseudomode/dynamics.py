"""Lindblad generator, deterministic propagation, and two-time correlators.

All generators are expressed in the frame rotating at the bath/ancilla
center frequency, so the master equation is time independent; any lab-frame
oscillating phase is restored analytically by callers that need it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

from .algebra import DensityMatrix, Operator, _density_matrices, _is_int, hermiticity_defect
from .integrators import IntegratorConfig, iter_instants

STATIONARITY_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class LindbladModel:
    """Hamiltonian plus (rate, jump operator) channels on one Hilbert space.

    Solvers read d rho/dt = G rho + rho G^dag + sum rate L rho L^dag from the cached
    `drift` G = -iH - 1/2 sum rate L^dag L and `channels`, the (rate, L) with rate > 0.
    """

    dim: int
    H: Operator
    jumps: tuple[tuple[float, Operator], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "jumps", tuple((float(r), L) for r, L in self.jumps))
        if not (_is_int(self.dim) and self.dim >= 1):
            raise ValueError(f"model dim must be an integer >= 1, got {self.dim!r}")
        if self.H.dim != self.dim:
            raise ValueError(f"H has dim {self.H.dim}, model dim is {self.dim}")
        # the defect of a non-finite H is NaN, which no comparison rejects
        if not np.isfinite(self.H.mat).all():
            raise ValueError("Hamiltonian must have finite entries")
        defect = hermiticity_defect(self.H)
        if defect > 1e-12:
            raise ValueError(f"Hamiltonian not Hermitian: defect {defect:.3e}")
        for rate, L in self.jumps:
            if not math.isfinite(rate):
                raise ValueError(f"jump rate must be finite, got {rate}")
            if rate < 0.0:
                raise ValueError(f"jump rate must be nonnegative, got {rate}")
            if L.dim != self.dim:
                raise ValueError(f"jump operator dim {L.dim} != model dim {self.dim}")
            if not np.isfinite(L.mat).all():
                raise ValueError("jump operator must have finite entries")

    @cached_property
    def channels(self) -> tuple[tuple[float, np.ndarray], ...]:
        return tuple((rate, L.mat) for rate, L in self.jumps if rate > 0.0)

    @cached_property
    def drift(self) -> np.ndarray:
        g = _drift(self.H.mat, self.channels)
        g.flags.writeable = False
        return g


def _drift(h: np.ndarray, channels: tuple[tuple[float, np.ndarray], ...]) -> np.ndarray:
    """G = -iH - 1/2 sum rate L^dag L of a Hamiltonian matrix and (rate, L) channels."""
    g = -1j * h
    for rate, L in channels:
        g = g - 0.5 * rate * (L.conj().T @ L)
    return g


@dataclass(frozen=True)
class TimeGrid:
    """Uniformly spaced output instants on [t0, t1]."""

    t0: float
    t1: float
    n_points: int

    def __post_init__(self):
        if not (math.isfinite(self.t0) and math.isfinite(self.t1)):
            raise ValueError(f"time interval must be finite, got [{self.t0}, {self.t1}]")
        if self.t1 <= self.t0:
            raise ValueError(f"need t1 > t0, got [{self.t0}, {self.t1}]")
        if not math.isfinite(self.t1 - self.t0):
            raise ValueError(f"time span t1 - t0 overflows, got [{self.t0}, {self.t1}]")
        if not (_is_int(self.n_points) and self.n_points >= 2):
            raise ValueError(f"n_points must be an integer >= 2, got {self.n_points!r}")

    def times(self) -> np.ndarray:
        return np.linspace(self.t0, self.t1, self.n_points)

    @property
    def dt(self) -> float:
        return (self.t1 - self.t0) / (self.n_points - 1)


def rhs_function(model: LindbladModel) -> Callable[[np.ndarray], np.ndarray]:
    """Compiled matrix-form right-hand side of the master equation."""
    G = model.drift
    G_dag = G.conj().T
    channels = [(rate, L, L.conj().T) for rate, L in model.channels]

    def rhs(rho: np.ndarray) -> np.ndarray:
        out = G @ rho + rho @ G_dag
        for rate, L, L_dag in channels:
            out += rate * (L @ rho @ L_dag)
        return out

    return rhs


def lindblad_rhs(model: LindbladModel, rho: Operator) -> Operator:
    """d(rho)/dt under the model; traceless, Hermiticity preserving."""
    if rho.dim != model.dim:
        raise ValueError(f"state dim {rho.dim} != model dim {model.dim}")
    return Operator(rhs_function(model)(rho.mat))


def generator_defect(model: LindbladModel, rho: DensityMatrix) -> float:
    """Max-entry magnitude of the generator applied to rho (0 iff stationary)."""
    return float(np.max(np.abs(rhs_function(model)(rho.mat))))


def _closure(src: np.ndarray, dst: np.ndarray, seeds: np.ndarray, size: int) -> np.ndarray:
    """Sorted nodes of 0..size-1 reached from `seeds` along the edges src -> dst, breadth
    first over the edges grouped by source: each edge out of a reached node is read once."""
    order = np.argsort(src, kind="stable")  # edges come in sorted runs
    start = np.searchsorted(src[order], np.arange(size + 1)).tolist()
    heads = dst[order].tolist()
    reached, queue = bytearray(size), []
    for node in seeds.tolist():
        if not reached[node]:
            reached[node] = 1
            queue.append(node)
    for node in queue:  # grows as it is read
        for head in heads[start[node]:start[node + 1]]:
            if not reached[head]:
                reached[head] = 1
                queue.append(head)
    return np.flatnonzero(np.frombuffer(reached, dtype=bool))


def _reachable(model: LindbladModel, rho0: np.ndarray) -> np.ndarray:
    """Indices of the basis states that rho(t) can ever occupy, sorted.

    The closure of rho0's support under the nonzeros of H (both ways), of
    each channel's L (forward: i -> r when L[r, i] != 0) and of L^T L, whose
    states sharing a row r of L meet at a node of their own for that row.
    G's pattern lies within these, so G is never formed (the set only grows,
    and stays exact, where its terms cancel). Every entry of rho(t) off the
    block on these states stays zero, and L^dag L's block is L^dag's times L's.
    """
    n = model.dim
    r, i = np.nonzero(model.H.mat)
    src, dst = [r, i], [i, r]
    for c, (_, L) in enumerate(model.channels, start=1):
        r, i = np.nonzero(L)
        src += [i, i, c * n + r]
        dst += [r, c * n + r, i]
    reached = _closure(np.concatenate(src), np.concatenate(dst), np.concatenate(np.nonzero(rho0)),
                       n * (len(model.channels) + 1))
    return reached[reached < n]


def _moves(model: LindbladModel) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """How the master equation moves the flat entries i * n + j of rho, as (src, dst, weight).

    G rho moves (i, j) to (r, j) along G[r, i], for every column j, and
    rate L rho L^dag moves (i, i') to (r, r') by rate L[r, i] conj L[r', i'].
    rho G^dag moves as G rho transposed and conjugated, which the Hermitian
    coordinates map to the same terms: G rho's moves weigh 2 G[r, i] and
    stand for both, and closures add transposition.
    """
    n, drift = model.dim, model.drift
    r, i = np.nonzero(drift)
    cols = np.arange(n)
    moves = [(i[:, None] * n + cols, r[:, None] * n + cols, np.repeat(2.0 * drift[r, i], n))]
    for rate, L in model.channels:
        r, i = np.nonzero(L)
        ell = L[r, i]
        moves.append((i[:, None] * n + i, r[:, None] * n + r, rate * ell[:, None] * ell.conj()))
    return tuple(np.concatenate([m.ravel() for m in part]) for part in zip(*moves))


def _reachable_entries(moves: tuple[np.ndarray, ...], seed: np.ndarray) -> np.ndarray:
    """Flat indices i * n + j of the entries rho(t)[i, j] that can ever be nonzero, sorted:
    the closure of the n x n seed's nonzero entries under the moves (_moves) and transposition,
    run on the unordered pairs, each named by its entry min(i, j) * n + max(i, j), and mirrored."""
    n, m = len(seed), moves[0].size
    flat = np.concatenate((*moves[:2], np.flatnonzero(seed)))
    named = np.minimum(flat, flat % n * n + flat // n)
    reached = np.zeros((n, n), dtype=bool)
    reached.flat[_closure(named[:m], named[m:2 * m], named[2 * m:], n * n)] = True
    return np.flatnonzero(reached | reached.T)


class _Block(NamedTuple):
    """A model's block on some of its basis states, as _moves and rhs_function read it."""
    dim: int
    drift: np.ndarray
    channels: tuple[tuple[float, np.ndarray], ...]


def _restricted(model: LindbladModel, idx: np.ndarray) -> _Block:
    """The model's block on the basis states idx (exact on _reachable's set): the drift of
    the block's H and channels, as LindbladModel.drift forms it, with no second validation."""
    block = np.ix_(idx, idx)
    channels = tuple((rate, L[block]) for rate, L in model.channels)
    return _Block(idx.size, _drift(model.H.mat[block], channels), channels)


class _HermitianCoordinates:
    """Real coordinates of the Hermitian matrices supported on a set of entries.

    `entries` are the sorted flat indices i * n + j of an n x n matrix's
    possibly nonzero entries, closed under transposition. Coordinate e keeps
    the position of entry e: rho_ii for a diagonal entry, sqrt(2) Re rho_ij
    at i < j and sqrt(2) Im rho_ij at its partner j > i. The map T from the k
    complex entries is unitary, and orthogonal on the Hermitian matrices.

    The entries also split the states into connected blocks, on which every
    supported matrix is block diagonal; `groups` gathers them by size.
    """

    def __init__(self, entries: np.ndarray, n: int):
        self.entries, self.n = entries, n
        k = entries.size
        row, col = np.divmod(entries, n)
        up = np.flatnonzero(row < col)
        low = np.searchsorted(entries, col[up] * n + row[up])
        c = np.sqrt(0.5)
        # the conversions see complex arrays as (Re, Im) float pairs: coordinate e is float
        # _read[e] of the flat matrix times _scale[e]; entry e of T^dag x is the pair
        # x[_pair[e]] * _pair_weight[e], and row k, past the entries, reads as zero
        self._read = 2 * entries
        self._read[low] = 2 * entries[up] + 1
        self._scale = np.where(row == col, 1.0, np.sqrt(2.0))
        self._pair = np.zeros((k + 1, 2), dtype=np.intp)
        self._pair[:k] = np.arange(k)[:, None]
        self._pair[up, 1] = low
        self._pair[low, 0] = up
        self._pair_weight = np.zeros((k + 1, 2))
        self._pair_weight[:k, 0] = np.where(row == col, 1.0, c)
        self._pair_weight[up, 1] = c
        self._pair_weight[low, 1] = -c
        # position of each entry of the n x n matrix; k marks the others
        self._at = np.full((n, n), k)
        self._at.flat[entries] = np.arange(k)
        linked = self._at < k
        label = np.arange(n)  # falls to the smallest state of each one's block
        while True:
            grown = np.minimum(label, np.where(linked, label, n).min(axis=1))
            grown = grown[grown]
            if np.array_equal(grown, label):
                break
            label = grown
        by_size: dict[int, list[np.ndarray]] = {}
        for first in np.flatnonzero(label == np.arange(n)):
            members = np.flatnonzero(label == first)
            by_size.setdefault(members.size, []).append(members)
        # per block size, an (b, s, s) gather of the b blocks' entries
        self.groups = [self._at[np.array(m)[:, :, None], np.array(m)[:, None, :]]
                       for _, m in sorted(by_size.items())]
        self.block_entries = sum(g.size for g in self.groups)

    def generator(self, moves: tuple[np.ndarray, ...]) -> tuple[np.ndarray, np.ndarray]:
        """R = T S T^dag, the real generator x' = R x of the coordinates, as its nonzero
        values at their sorted flat positions r * k + c, (at, values).

        S is the master equation on the entries, read off its moves (_moves).
        Each move gives four terms, as T has two nonzeros per column. R[r, c]
        sums, in order, the nonzero terms at position r * k + c (a zero term
        changes no sum, and most are: T's Re/Im cross terms on a real S); a
        position whose terms cancel exactly is dropped. No k x k array is formed.
        """
        k, at = self.entries.size, self._at.ravel()
        src, dst, val = moves
        src = at[src]
        on = src < k  # the move starts at an entry, so it ends at one
        src, dst, val = src[on], at[dst[on]], val[on]
        # column e of T has T[_pair[e, a], e] = w[e, a], so each move adds
        # Re(w[dst, a] val conj w[src, b]) to R[_pair[dst, a], _pair[src, b]]
        w = self._pair_weight * np.array([1.0, -1j])
        at = self._pair[dst][:, :, None] * k + self._pair[src][:, None, :]
        terms = (w[dst][:, :, None] * val[:, None, None] * w[src].conj()[:, None, :]).real
        kept = terms.ravel() != 0.0  # a zero term changes no sum
        at, terms = at.ravel()[kept], terms.ravel()[kept]
        order = np.argsort(at, kind="stable")  # a position's terms keep their order
        at = at[order]
        first = np.diff(at, prepend=-1) != 0
        values = np.bincount(np.cumsum(first) - 1, terms[order])
        nonzero = values != 0.0
        return at[first][nonzero], values[nonzero]

    def of_matrix(self, m: np.ndarray) -> np.ndarray:
        """Coordinates (..., k) of the Hermitian (..., n, n) matrices m."""
        pairs = np.ascontiguousarray(m, dtype=complex).reshape(m.shape[:-2] + (-1,)).view(float)
        return pairs[..., self._read] * self._scale

    def values(self, x: np.ndarray, at: np.ndarray | slice = slice(None)) -> np.ndarray:
        """T^dag x at the entries `at` of coordinates x (..., k); by default all, then a zero."""
        return (np.take(x, self._pair[at], axis=-1) * self._pair_weight[at]).view(complex)[..., 0]

    def matrix(self, x: np.ndarray) -> np.ndarray:
        """The (..., n, n) Hermitian matrices with coordinates x (..., k): of_matrix's inverse."""
        m = np.zeros(x.shape[:-1] + (self.n * self.n,), dtype=complex)
        m[..., self.entries] = self.values(x)[..., :-1]
        return m.reshape(x.shape[:-1] + (self.n, self.n))

    def blocks(self, x: np.ndarray) -> list[np.ndarray]:
        """The (m, b, s, s) stacks of diagonal blocks at each row of an (m, k) curve, each
        gathered from x at its group's entries."""
        return [self.values(x, g) for g in self.groups]


class _Layout(NamedTuple):
    """What a deterministic run from a matrix seed carries (_coordinate_layout)."""

    states: np.ndarray  # the basis states it can occupy
    coords: _HermitianCoordinates  # the real coordinates of the k entries it can reach on them
    z0: np.ndarray  # (k,) the seed's Hermitian parts H + iK, as coordinates x0 + i y0
    live: np.ndarray  # the c coordinates that can move, sorted
    generator: tuple[np.ndarray, np.ndarray]  # R on the live coordinates, as _field reads it
    dim: int  # the model's dimension n, whose basis `states` index

    def widen(self, x: np.ndarray) -> np.ndarray:
        """The (..., k) curve of a live coordinates' curve x (..., c); the others are zero."""
        curve = np.zeros(x.shape[:-1] + self.coords.entries.shape, dtype=x.dtype)
        curve[..., self.live] = x
        return curve


def _coordinate_layout(model: LindbladModel, seed: np.ndarray) -> _Layout:
    """Where every deterministic run from the matrix seed B = H + iK lives: on the states
    reachable from B, the entries reachable from B's block and its transpose under the
    block's moves (listed once), and of their real coordinates, the live ones, reached from
    the nonzero ones of H and K along R's nonzeros (x_c feeds x_r where R[r, c] != 0). R is
    summed once; the other coordinates stay exactly zero."""
    states = _reachable(model, seed)
    block = _restricted(model, states)
    block0 = seed[np.ix_(states, states)]
    moves = _moves(block)
    coords = _HermitianCoordinates(_reachable_entries(moves, block0), states.size)
    # K is the Hermitian part of -iB
    x0, y0 = coords.of_matrix(np.array([(m + m.conj().T) / 2.0 for m in (block0, -1j * block0)]))
    z0 = x0 + 1j * y0
    k = coords.entries.size
    at, values = coords.generator(moves)
    rows, cols = np.divmod(at, k)
    live = _closure(cols, rows, np.flatnonzero(z0), k)
    renumbered = np.full(k, -1)
    renumbered[live] = np.arange(live.size)
    kept = renumbered[cols] >= 0  # a live column feeds only live rows
    at = renumbered[rows[kept]] * live.size + renumbered[cols[kept]]
    return _Layout(states, coords, z0, live, (at, values[kept]), model.dim)


def _field(at: np.ndarray, values: np.ndarray, size: int) -> Callable[[np.ndarray], np.ndarray]:
    """x -> R x on real coordinates x (size,), for R's nonzero values at flat positions at."""
    rows, cols = np.divmod(at, size)
    return lambda x: np.bincount(rows, values * x[cols], size)


def _integrate_coordinates(generator: tuple[np.ndarray, np.ndarray], z0: np.ndarray,
                           instants: np.ndarray, cfg: IntegratorConfig,
                           norm_size: int) -> np.ndarray:
    """Adaptive run of the coordinates z0 under z' = R z, R = generator as _field reads it,
    (len(instants), z0.size); a complex z0 = x + iy runs as its real parts x and y.

    The state is Hermitian by construction, so Dopri5 reuses its last stage
    (FSAL); `norm_size` is passed on to it."""
    field = _field(*generator, z0.size)
    rhs = field if np.isrealobj(z0) else lambda z: field(z.real) + 1j * field(z.imag)
    curve = np.empty((len(instants), z0.size), dtype=z0.dtype)
    for i, z in enumerate(iter_instants(rhs, z0, instants, cfg, norm_size=norm_size)):
        curve[i] = z
    return curve


def evolve(
    model: LindbladModel,
    rho0: DensityMatrix,
    grid: TimeGrid,
    cfg: IntegratorConfig = IntegratorConfig(),
) -> list[DensityMatrix]:
    """Propagate rho0 and return one validated density matrix per instant.

    Only the live real coordinates of the entries that can become nonzero
    are integrated (_coordinate_layout; exact: every other one stays zero),
    so every state is Hermitian by construction. The error norm still averages
    over the whole matrix's d^2 entries, so the steps are close to those of
    the full-space run. Trace and positivity are not adjusted, so drift
    beyond the DensityMatrix tolerances raises instead of being masked; the
    whole curve is checked in one stacked pass (_density_matrices).
    """
    if rho0.dim != model.dim:
        raise ValueError(f"initial state dim {rho0.dim} != model dim {model.dim}")
    layout = _coordinate_layout(model, rho0.mat)
    curve = _integrate_coordinates(layout.generator, layout.z0.real[layout.live], grid.times(),
                                   cfg, rho0.mat.size)
    full = np.zeros((grid.n_points,) + rho0.mat.shape, dtype=complex)
    full[:, layout.states[:, None], layout.states] = layout.coords.matrix(layout.widen(curve))
    return _density_matrices(full)


def regression_correlator(
    model: LindbladModel,
    a: Operator,
    b: Operator,
    rho: DensityMatrix,
    taus: TimeGrid,
    cfg: IntegratorConfig = IntegratorConfig(),
) -> np.ndarray:
    """Two-time correlator <A(tau) B(0)> in a stationary state.

    The seed B rho = H + iK, for H and K = (B rho - (B rho)^dag) / 2i
    Hermitian, runs as x + iy for the real coordinates x of H and y of K,
    on the live coordinates of the entries reachable from B rho and its
    transpose (_coordinate_layout); the correlator is tr(A * propagated
    seed) at each delay, read on those entries.
    """
    for op, name in ((a, "A"), (b, "B")):
        if op.dim != model.dim:
            raise ValueError(f"operator {name} dim {op.dim} != model dim {model.dim}")
    if rho.dim != model.dim:
        raise ValueError(f"state dim {rho.dim} != model dim {model.dim}")
    if taus.t0 < 0.0:
        raise ValueError(f"delays must be nonnegative, got t0 = {taus.t0}")
    defect = generator_defect(model, rho)
    if defect > STATIONARITY_TOL:
        raise ValueError(
            f"state is not stationary under the model (generator defect {defect:.3e} "
            f"> {STATIONARITY_TOL:g})"
        )
    seed = b.mat @ rho.mat
    if not seed.any():
        return np.zeros(taus.n_points, dtype=complex)
    layout = _coordinate_layout(model, seed)
    instants = np.union1d([0.0], taus.times())  # the seed is taken at delay 0
    z = _integrate_coordinates(layout.generator, layout.z0[layout.live], instants, cfg, seed.size)
    z, coords, states = layout.widen(z[-taus.n_points:]), layout.coords, layout.states
    entries = coords.values(z.real) + 1j * coords.values(z.imag)
    return entries[:, :-1] @ a.mat[np.ix_(states, states)].T.reshape(-1)[coords.entries]
