"""Independent brute-force references for the ancilla-embedding pipeline.

Two deliberately different routes to the same decay curve:

* a Volterra integro-differential solver for the excited-state amplitude of
  a two-level emitter, driven by the exponentially damped memory kernel and
  discretized by direct trapezoid quadrature over the full history (no local
  auxiliary-variable shortcut, which would secretly be the ancilla reduction
  again); the scheme's triangular Toeplitz system is solved for any sampled
  kernel by divide and conquer with FFT convolutions, in O(N log^2 N);
* unitary evolution of the emitter plus a finely discretized reservoir in
  the single-excitation sector, solved exactly from the spectrum of the
  single-excitation Hamiltonian. That matrix is an arrowhead (the bath
  detunings on the diagonal, the couplings in one row and column), so its
  eigenvalues are the roots of a secular equation, one per gap between
  consecutive mode detunings, and the emitter's weight on each follows in
  closed form: O(n^2) time and O(n) memory in the mode count n, against
  O(n^3) and O(n^2) for a dense eigendecomposition.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .algebra import _is_int
from .baths import Lorentzian, _line_shape
from .dynamics import TimeGrid
from .embedding import SystemSpec, _detuning

STEP_KERNEL_LIMIT = 0.05
_LEAF = 64  # unknowns per divide-and-conquer leaf, solved by one dense product
_BLOCK_ENTRIES = 1 << 17  # root-pole pairs held at once by the secular solve
_SECULAR_MAX_ITER = 100  # Newton or bisection steps per root before giving up
_EPS = float(np.finfo(float).eps)


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


def _volterra_substeps(dt_out: float, h: float) -> float:
    """Solver steps per output interval, the fewest of size at most h (inf if dt_out / h is)."""
    return max(1.0, float(np.ceil(dt_out / h - 1e-12)))


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
    n_sub = int(_volterra_substeps(dt_out, h))
    h_eff = dt_out / n_sub
    n_steps = n_sub * (grid.n_points - 1)
    delays = h_eff * np.arange(n_steps + 1)
    kernel = bath.g**2 * np.exp(-0.5 * bath.gamma * delays)
    c = solve_volterra_kernel(kernel, h_eff, detuning=detuning)
    return AmplitudeTrajectory(times=grid.times(), c=c[::n_sub].copy())


@dataclass(frozen=True, eq=False)
class DiscreteBath:
    """Uniform midpoint sampling of a Lorentzian line into modes, held by detuning from omega0."""

    n_modes: int
    omega0: float
    detunings: np.ndarray
    couplings: np.ndarray

    def __post_init__(self):
        detunings = np.asarray(self.detunings, dtype=float)
        coups = np.asarray(self.couplings, dtype=float)
        if detunings.shape != (self.n_modes,) or coups.shape != (self.n_modes,):
            raise ValueError("detunings and couplings must both have length n_modes")
        object.__setattr__(self, "detunings", detunings)
        object.__setattr__(self, "couplings", coups)

    @property
    def frequencies(self) -> np.ndarray:
        return self.omega0 + self.detunings

    @property
    def spacing(self) -> float:
        return float(self.detunings[1] - self.detunings[0])


def build_discrete_bath(bath: Lorentzian, n_modes: int, half_width: float) -> DiscreteBath:
    """Sample the line at n_modes midpoints across detunings +/- half_width."""
    if not (_is_int(n_modes) and n_modes >= 50):
        raise ValueError(f"n_modes must be an integer >= 50 for a faithful bath, got {n_modes!r}")
    if not math.isfinite(half_width):
        raise ValueError(f"window half-width must be finite, got {half_width!r}")
    if half_width < 10.0 * bath.gamma:
        raise ValueError(f"window half-width {half_width:g} below 10 gamma = {10 * bath.gamma:g}")
    d_omega = 2.0 * half_width / n_modes
    detunings = -half_width + (np.arange(n_modes) + 0.5) * d_omega
    with np.errstate(over="ignore"):
        couplings = np.sqrt(_line_shape(bath, detunings) * d_omega / (2.0 * np.pi))
    if not np.isfinite(couplings).all():
        raise ValueError(f"{bath} sampled at {n_modes} modes has couplings past the float range")
    return DiscreteBath(n_modes=n_modes, omega0=bath.omega0, detunings=detunings,
                        couplings=couplings)


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
    return _detuning(system)


def _arrowhead_spectrum(
    apex: float, poles: np.ndarray, couplings: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues of [[apex, z^T], [z, diag(poles)]] and their weights on the apex.

    Only eigenvalues that overlap the apex are returned. A pole with zero
    coupling is an eigenvector orthogonal to it and is dropped (deflation;
    so is one whose coupling is below eps times the matrix's largest entry,
    the accuracy of any eigensolver), and coinciding poles are merged into
    one that carries the sum of their z^2 (a rotation within the degenerate
    pair). The remaining m sorted poles d_k interlace the m + 1 roots of
    the secular equation

        f(lam) = lam - apex - sum_k z_k^2 / (lam - d_k) = 0,

    one below the band, one in each gap and one above the band; no root lies
    farther than |z| outside the diagonal's range. The weight of root lam_j
    on the apex is 1 / f'(lam_j) = 1 / (1 + sum_k z_k^2 / (lam_j - d_k)^2),
    and the weights sum to 1.

    Roots are found in row blocks of about _BLOCK_ENTRIES root-pole pairs,
    so the work is O(m^2) per Newton iteration and the memory O(m * block).
    """
    poles = np.asarray(poles, dtype=float)
    z = np.asarray(couplings, dtype=float)
    # a power of two brings the largest entry into [0.5, 1) without rounding, so
    # no product below overflows; a coupling under eps of that entry is deflated
    top = max(abs(apex), np.abs(poles).max(initial=0.0), np.abs(z).max(initial=0.0))
    exp = math.frexp(top)[1]
    z2 = np.ldexp(z, -exp) ** 2
    poles, merged = np.unique(np.ldexp(poles, -exp), return_inverse=True)
    z2 = np.bincount(merged, weights=z2, minlength=poles.size)
    keep = z2 > _EPS * _EPS
    poles, z2 = poles[keep], z2[keep]
    m = poles.size
    if m == 0:
        return np.array([apex]), np.ones(1)
    apex = math.ldexp(apex, -exp)
    spread = math.sqrt(math.fsum(z2))
    lower = min(apex, poles[0]) - spread
    upper = max(apex, poles[-1]) + spread
    # gap j runs from a[j] to b[j]: pole j - 1 to pole j, or a bound for the outer two;
    # p and q are the z^2 of its ends, 0 at a bound
    a = np.concatenate(([lower], poles))
    b = np.concatenate((poles, [upper]))
    p = np.concatenate(([0.0], z2))
    q = np.concatenate((z2, [0.0]))
    levels = np.empty(m + 1)
    weights = np.empty(m + 1)
    n_blocks = -(-(m + 1) * m // _BLOCK_ENTRIES)
    for j in np.array_split(np.arange(m + 1), n_blocks):
        levels[j], weights[j] = _secular_roots(j, apex, poles, z2, a[j], b[j], p[j], q[j])
    return np.ldexp(levels, exp), weights


def _without_gap_poles(dist: np.ndarray, j: np.ndarray, m: int) -> np.ndarray:
    """Set the columns of each gap's own poles to infinity, so their terms vanish."""
    rows = np.arange(j.size)
    left, right = j > 0, j < m
    dist[rows[left], j[left] - 1] = np.inf
    dist[rows[right], j[right]] = np.inf
    return dist


# The two-pole model divides by zero in the branches np.where discards, and a
# weight whose pole factor underflows to 0 is 0, its limit.
@np.errstate(divide="ignore", invalid="ignore", under="ignore")
def _secular_roots(j, apex, poles, z2, a, b, p, q):
    """Roots and weights of the secular equation in gaps j, bracketed by a < b.

    p and q are the z^2 of the bracketing poles, 0 where an end is a bound.
    Each root is held as its nearer pole sigma plus an offset tau (Gu and
    Eisenstat, SIAM J. Matrix Anal. Appl. 15, 1266 (1994)), so lam - d_k =
    (sigma - d_k) + tau carries no cancellation. A root starts from the
    two-pole model of its gap, the other poles' sum frozen at the gap's
    midpoint, and is refined by Newton's method on g = f (lam - a)(b - lam),
    the secular function times the factors of its bracketing poles, which
    has no pole inside the gap. A step that leaves the sign bracket bisects
    it instead. A root is done when g is below its rounding noise or the
    step below 4 eps of tau, and only unconverged roots are iterated.
    """
    m = poles.size
    has_a, has_b = j > 0, j < m
    inner = has_a & has_b
    width = b - a
    # the other poles' sum, frozen at the gap's midpoint (the outer gaps' far end)
    probe = np.where(inner, 0.5 * (a + b), np.where(has_a, b, a))
    inv = _without_gap_poles(np.subtract.outer(probe, poles), j, m)
    np.reciprocal(inv, out=inv)
    frozen = probe - apex - inv @ z2
    np.abs(inv, out=inv)
    rest = inv @ z2  # scale of the rounding in the other poles' sum
    del inv

    # f is increasing, so f(mid) > 0 puts the root in the left half; the
    # bottom root is measured from the first pole, the top one from the last
    near_a = ~has_b | (inner & (frozen - 2.0 * p / width + 2.0 * q / width > 0.0))
    sigma = np.where(near_a, a, b)
    alpha = np.where(has_a, a - sigma, 0.0)  # bracketing poles relative to sigma
    beta = np.where(has_b, b - sigma, 0.0)
    lo = np.where(near_a, 0.0, np.where(has_a, -0.5 * width, a - sigma))
    hi = np.where(near_a, np.where(has_b, 0.5 * width, b - sigma), 0.0)

    # two-pole model inside: c (lam - a)(b - lam) - p (b - lam) + q (lam - a) = 0,
    # solved for the offset from the nearer pole without cancellation
    cw = frozen * width
    root = np.sqrt((cw - p + q) ** 2 + 4.0 * p * q)
    lin = np.where(near_a, cw + p + q, cw - p - q)
    from_a = np.where(lin > 0.0, 2.0 * p * width / (lin + root), (lin - root) / (2.0 * frozen))
    from_b = np.where(lin > 0.0, -(lin + root) / (2.0 * frozen), 2.0 * q * width / (lin - root))
    # outer gaps, where f grows like lam: s^2 + c0 s = w in s = |tau|
    c0 = np.where(has_a, 1.0, -1.0) * (frozen - probe + sigma)
    w = p + q
    rad = np.sqrt(c0 * c0 + 4.0 * w)
    s = np.where(c0 > 0.0, 2.0 * w / (c0 + rad), 0.5 * (rad - c0))
    guess = np.where(inner, np.where(near_a, from_a, from_b), np.where(has_a, s, -s))
    tau = np.where((guess >= lo) & (guess <= hi), guess, 0.5 * (lo + hi))

    shift = sigma - apex
    dist = _without_gap_poles(np.subtract.outer(sigma, poles), j, m)
    slope = np.empty_like(tau)
    todo = np.arange(tau.size)
    work = np.empty_like(dist)
    for _ in range(_SECULAR_MAX_ITER):
        t = tau[todo]
        x = work[: todo.size]
        np.add(dist if todo.size == tau.size else dist[todo], t[:, None], out=x)
        np.reciprocal(x, out=x)
        r = shift[todo] + t - x @ z2
        x *= x
        r1 = 1.0 + x @ z2
        ha, hb, pt, qt = has_a[todo], has_b[todo], p[todo], q[todo]
        fa = np.where(ha, t - alpha[todo], 1.0)
        fb = np.where(hb, beta[todo] - t, 1.0)
        g = r * fa * fb - pt * fb + qt * fa
        g1 = r1 * fa * fb + r * (ha * fb - hb * fa) + pt * hb + qt * ha
        slope[todo] = r1
        noise = 8.0 * _EPS * ((np.abs(shift[todo]) + np.abs(t) + rest[todo]) * fa * fb
                             + pt * fb + qt * fa)
        tl = lo[todo] = np.where(g < 0.0, t, lo[todo])
        th = hi[todo] = np.where(g > 0.0, t, hi[todo])
        new = t - g / g1
        new = np.where((new >= tl) & (new <= th), new, 0.5 * (tl + th))
        quiet = np.abs(g) <= noise
        tau[todo] = np.where(quiet, t, new)
        todo = todo[~(quiet | (np.abs(new - t) <= 4.0 * _EPS * np.abs(new)))]
        if todo.size == 0:
            break
    else:
        raise ArithmeticError(
            f"secular equation: {todo.size} roots unconverged after {_SECULAR_MAX_ITER} steps"
        )
    fa = np.where(has_a, tau - alpha, np.inf)
    fb = np.where(has_b, beta - tau, np.inf)
    return sigma + tau, 1.0 / (slope + p / (fa * fa) + q / (fb * fb))


def discrete_bath_evolve(
    system: SystemSpec,
    bath: Lorentzian,
    n_modes: int,
    half_width: float,
    grid: TimeGrid,
) -> AmplitudeTrajectory:
    """Exact unitary single-excitation evolution against a discretized bath.

    In the sector spanned by |excited, vacuum> and |ground, one photon in
    mode k>, the Hamiltonian is the arrowhead H = [[detuning, z^T], [z,
    diag(d)]] with d the mode detunings and z the mode couplings. The
    amplitude c(t) = <e| exp(-i H t) |e> = sum_j w_j exp(-i lam_j t) needs
    only H's eigenvalues lam_j and their weights w_j = |<e|v_j>|^2 on the
    excited state, which `_arrowhead_spectrum` finds from the secular
    equation in O(n_modes^2) time and O(n_modes) memory, with no
    (n_modes + 1)-square matrix formed.

    `norm_defect` is the sum-rule defect |sum_j w_j - 1|. The weights are
    the squared components of |e> in H's eigenbasis and sum to |psi(t)|^2
    at every instant, so in exact arithmetic it equals the norm defect
    | |psi(t)| - 1 | that a dense diagonalization measures state by state.
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
    levels, weights = _arrowhead_spectrum(detuning, discrete.detunings, discrete.couplings)
    # t_k = t0 + (span h + l) dt, so e^{-i lam t_k} is a coarse phase times a
    # fine one, and c on the grid is one product of two span-column tables
    times = grid.times()
    span = math.isqrt(times.size - 1) + 1
    steps = grid.dt * np.arange(span)
    coarse = np.exp(-1j * np.multiply.outer(levels, grid.t0 + span * steps))
    fine = np.exp(-1j * np.multiply.outer(levels, steps))
    c = ((weights[:, None] * coarse).T @ fine).ravel()[: times.size]
    return AmplitudeTrajectory(
        times=times,
        c=c,
        norm_defect=abs(float(math.fsum(weights)) - 1.0),
    )
