"""Independent brute-force references for the ancilla-embedding pipeline.

Two deliberately different routes to the same decay curve:

* a Volterra integro-differential solver for the excited-state amplitude of
  a two-level emitter, driven by the exponentially damped memory kernel and
  discretized by direct trapezoid quadrature over the full history (no local
  auxiliary-variable shortcut, which would secretly be the ancilla reduction
  again); the scheme's triangular Toeplitz system is solved for any sampled
  kernel by divide and conquer with FFT convolutions, in O(N log^2 N);
* unitary evolution of the emitter plus a finely discretized reservoir in
  the single-excitation sector, solved exactly by diagonalizing the
  Hermitian single-excitation Hamiltonian.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .baths import Lorentzian, spectral_density_eval
from .dynamics import TimeGrid
from .embedding import SystemSpec

STEP_KERNEL_LIMIT = 0.05
_LEAF = 64  # unknowns per divide-and-conquer leaf, solved by one dense product


class BathRecurrenceWarning(UserWarning):
    """Finite discretized bath echoes back within the requested horizon."""


@dataclass(frozen=True, eq=False)
class AmplitudeTrajectory:
    """Excited-state amplitude c(t) on a grid, in the rotating frame."""

    times: np.ndarray
    c: np.ndarray
    norm_defect: float | None = None

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        c = np.asarray(self.c, dtype=complex)
        if times.shape != c.shape:
            raise ValueError("times and amplitudes must have matching shapes")
        if c.ndim != 1 or c.size == 0:
            raise ValueError(f"amplitudes must form a nonempty 1-D array, got shape {c.shape}")
        if not (np.isfinite(times).all() and np.isfinite(c).all()):
            raise ValueError("times and amplitudes must be finite")
        if abs(abs(c[0]) - 1.0) > 1e-12:
            raise ValueError(f"|c(0)| must be 1, got {abs(c[0]):.12g}")
        if np.max(np.abs(c)) > 1.0 + 1e-9:
            raise ValueError("amplitude exceeded 1 beyond tolerance")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "c", c)

    @property
    def p_excited(self) -> np.ndarray:
        return np.abs(self.c) ** 2


def solve_volterra_kernel(kernel: np.ndarray, h: float, detuning: float = 0.0) -> np.ndarray:
    """Solve c' = -i detuning c - integral(kernel(t-s) c(s) ds, 0..t), c(0) = 1.

    `kernel` holds samples on the uniform step grid, kernel[j] at delay j*h.
    History integral and time step both use the trapezoid rule over the full
    history, giving a second-order scheme. The integral starts from the
    half-weighted origin node, so a boundary delta of weight f^2 (sampled as
    kernel[0] = f^2/h, zero elsewhere) reproduces the memoryless decay
    exactly.

    The scheme's equations for c_1..c_N form one lower-triangular Toeplitz
    system T c = r. Its symbol splits into a local part (the two-term step,
    denom and -numer_old) and a memory part carried by the kernel. The system
    is solved by divide and conquer: solve the left half, subtract its effect
    on the right half with one FFT convolution of the memory part plus the
    local term across the boundary, then solve the right half. Each leaf of
    _LEAF unknowns is one product with the inverse of T's leading leaf block.
    That costs O(N log^2 N) time and O(N) memory, against O(N^2) for a march
    with one history dot product per step, and gives the same solution up to
    roundoff. A zero kernel has an all-zero memory part, whose FFT is exactly
    zero, so c stays exactly 1.
    """
    kernel = np.asarray(kernel, dtype=complex)
    if kernel.ndim != 1 or kernel.size == 0:
        raise ValueError(f"kernel must be a nonempty 1-D array, got shape {kernel.shape}")
    if not np.isfinite(kernel).all():
        raise ValueError("kernel samples must be finite")
    if not (math.isfinite(h) and h > 0.0):
        raise ValueError(f"step must be finite and positive, got {h}")
    if not math.isfinite(detuning):
        raise ValueError(f"detuning must be finite, got {detuning}")
    n = kernel.size - 1
    c = np.empty(n + 1, dtype=complex)
    c[0] = 1.0
    if n == 0:
        return c
    hh = h * h
    denom = 1.0 + 1j * detuning * h / 2.0 + hh * kernel[0] / 4.0
    numer_old = 1.0 - 1j * detuning * h / 2.0
    # memory part of the symbol, t_m less the local (denom, -numer_old)
    memory = np.zeros(n, dtype=complex)
    memory[2:] = (hh / 2.0) * (kernel[1:-2] + kernel[2:-1])
    if n > 1:
        memory[1] = hh * (kernel[0] / 4.0 + kernel[1] / 2.0)
    rhs = -(hh / 4.0) * (kernel[:-1] + kernel[1:])
    rhs[0] += numer_old

    # first column of the leaf block's inverse, itself lower-triangular Toeplitz
    leaf = min(_LEAF, n)
    symbol = memory[:leaf].copy()  # symbol[0] = denom is divided out below
    if leaf > 1:
        symbol[1] -= numer_old
    col = np.empty(leaf, dtype=complex)
    col[0] = 1.0 / denom
    for k in range(1, leaf):
        col[k] = -np.dot(symbol[k:0:-1], col[:k]) / denom
    lag = np.subtract.outer(np.arange(leaf), np.arange(leaf))
    inverse = np.where(lag >= 0, col[np.maximum(lag, 0)], 0.0)

    # The tree is walked as a loop over leaves in time order (a recursive
    # closure would be a reference cycle holding these arrays until the cyclic
    # collector runs). Solving leaf [e - leaf, e) completes the left child
    # [e - span, e), span = leaf times the lowest set bit of e / leaf. Its
    # effect on the sibling rows [e, e + span) is one circular convolution of
    # size 2 span, whose lags lie in (0, 2 span) so nothing wraps, plus the
    # local term at row e.
    x = c[1:]
    spectra: dict[int, np.ndarray] = {}
    for lo in range(0, n, leaf):
        e = min(lo + leaf, n)
        x[lo:e] = inverse[: e - lo, : e - lo] @ rhs[lo:e]
        if e == n:
            break
        blocks = e // leaf
        span = leaf * (blocks & -blocks)
        spec = spectra.get(span)
        if spec is None:
            spec = spectra[span] = np.fft.fft(memory[: 2 * span], 2 * span)
        conv = np.fft.ifft(np.fft.fft(x[e - span : e], 2 * span) * spec)
        reach = min(span, n - e)
        rhs[e : e + reach] -= conv[span : span + reach]
        rhs[e] += numer_old * x[e - 1]
    return c


def check_volterra_step(bath: Lorentzian, h: float) -> None:
    """Raise ValueError unless g h and gamma h are both at most STEP_KERNEL_LIMIT."""
    if bath.g * h > STEP_KERNEL_LIMIT or bath.gamma * h > STEP_KERNEL_LIMIT:
        raise ValueError(
            f"step h = {h:g} too coarse: need g*h <= {STEP_KERNEL_LIMIT} and "
            f"gamma*h <= {STEP_KERNEL_LIMIT} (g = {bath.g:g}, gamma = {bath.gamma:g}); "
            f"reduce h to at most {STEP_KERNEL_LIMIT / max(bath.g, bath.gamma):.3g}"
        )


def volterra_amplitude(
    bath: Lorentzian,
    grid: TimeGrid,
    h: float,
    detuning: float = 0.0,
) -> AmplitudeTrajectory:
    """Excited-state amplitude from the memory-kernel equation.

    The rotating-frame kernel is g^2 exp(-gamma tau / 2). The internal step
    is shrunk so that every output instant lands exactly on a solver node;
    `h` is an upper bound and must satisfy g h <= 0.05 and gamma h <= 0.05.
    """
    if grid.t0 != 0.0:
        raise ValueError("amplitude equation starts at t = 0; use a grid with t0 = 0")
    if not (math.isfinite(h) and h > 0.0):
        raise ValueError(f"step must be finite and positive, got {h}")
    check_volterra_step(bath, h)
    dt_out = grid.dt
    n_sub = max(1, int(np.ceil(dt_out / h - 1e-12)))
    h_eff = dt_out / n_sub
    n_steps = n_sub * (grid.n_points - 1)
    delays = h_eff * np.arange(n_steps + 1)
    kernel = bath.g**2 * np.exp(-0.5 * bath.gamma * delays)
    c = solve_volterra_kernel(kernel, h_eff, detuning=detuning)
    return AmplitudeTrajectory(times=grid.times(), c=c[::n_sub].copy())


@dataclass(frozen=True, eq=False)
class DiscreteBath:
    """Uniform midpoint sampling of a Lorentzian line into discrete modes."""

    n_modes: int
    frequencies: np.ndarray
    couplings: np.ndarray

    def __post_init__(self):
        freqs = np.asarray(self.frequencies, dtype=float)
        coups = np.asarray(self.couplings, dtype=float)
        if freqs.shape != (self.n_modes,) or coups.shape != (self.n_modes,):
            raise ValueError("frequencies and couplings must both have length n_modes")
        object.__setattr__(self, "frequencies", freqs)
        object.__setattr__(self, "couplings", coups)

    @property
    def spacing(self) -> float:
        return float(self.frequencies[1] - self.frequencies[0])


def check_window(bath: Lorentzian, half_width: float) -> None:
    """Raise ValueError unless the window half-width is at least 10 gamma."""
    if half_width < 10.0 * bath.gamma:
        raise ValueError(
            f"window half-width {half_width:g} below 10 gamma = {10 * bath.gamma:g}"
        )


def build_discrete_bath(bath: Lorentzian, n_modes: int, half_width: float) -> DiscreteBath:
    """Sample the line at n_modes midpoints across omega0 +/- half_width."""
    if n_modes < 50:
        raise ValueError(f"need at least 50 modes for a faithful bath, got {n_modes}")
    check_window(bath, half_width)
    d_omega = 2.0 * half_width / n_modes
    freqs = bath.omega0 - half_width + (np.arange(n_modes) + 0.5) * d_omega
    weights = spectral_density_eval(bath, freqs)
    couplings = np.sqrt(weights * d_omega / (2.0 * np.pi))
    return DiscreteBath(n_modes=n_modes, frequencies=freqs, couplings=couplings)


def _tls_detuning(system: SystemSpec) -> float:
    """Extract the level splitting; the reduction needs a lowering-type V."""
    if system.d_S != 2:
        raise ValueError("single-excitation bath oracle supports two-level systems only")
    expected_v = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    if np.max(np.abs(system.V.mat - expected_v)) > 1e-12:
        raise ValueError("single-excitation bath oracle requires V = sigma_minus")
    h = system.H_S.mat
    if np.max(np.abs(h - np.diag(np.diag(h)))) > 1e-12:
        raise ValueError("single-excitation bath oracle requires a diagonal H_S")
    return float(np.real(h[1, 1] - h[0, 0]))


def discrete_bath_evolve(
    system: SystemSpec,
    bath: Lorentzian,
    n_modes: int,
    half_width: float,
    grid: TimeGrid,
) -> AmplitudeTrajectory:
    """Exact unitary single-excitation evolution against a discretized bath.

    The (n_modes + 1)-dimensional Hermitian Hamiltonian of the sector
    spanned by |excited, vacuum> and |ground, one photon in mode k> is
    diagonalized once; states at all output instants follow exactly, so the
    norm is conserved to machine precision.
    """
    detuning = _tls_detuning(system)
    discrete = build_discrete_bath(bath, n_modes, half_width)
    recurrence = 2.0 * np.pi / discrete.spacing
    if grid.t1 > 0.5 * recurrence:
        warnings.warn(
            f"horizon t1 = {grid.t1:g} exceeds half the bath recurrence time "
            f"{recurrence:g}; the finite bath echoes back",
            BathRecurrenceWarning,
            stacklevel=2,
        )
    n = discrete.n_modes
    m = np.zeros((n + 1, n + 1), dtype=float)
    m[0, 0] = detuning
    m[0, 1:] = discrete.couplings
    m[1:, 0] = discrete.couplings
    idx = np.arange(1, n + 1)
    m[idx, idx] = discrete.frequencies - bath.omega0
    evals, evecs = np.linalg.eigh(m)
    amp0 = evecs[0, :]
    times = grid.times()
    phases = np.exp(-1j * np.outer(evals, times))
    states = evecs @ (phases * amp0[:, None])
    norms = np.linalg.norm(states, axis=0)
    return AmplitudeTrajectory(
        times=times,
        c=states[0, :].copy(),
        norm_defect=float(np.max(np.abs(norms - 1.0))),
    )
