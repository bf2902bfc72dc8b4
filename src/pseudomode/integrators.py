"""Adaptive embedded Runge-Kutta 4(5) propagation of real or complex array states.

One Dormand-Prince step controller serves density matrices (as the real
coordinates of their Hermitian entries) and wavefunctions: the state is any
real or complex ndarray, kept in its own kind, and the vector field must be
autonomous (all generators in this package are written in the rotating
frame, where they are time independent). An accepted step keeps only its
start and first stage, from which interpolate rebuilds the others. On a
constant matrix generator R, propagator takes each trial step as the
tableau's stability polynomial in hR instead of its stages.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

# Dormand-Prince 5(4) tableau. The 5th-order weight row reuses stage
# coefficients a7*, and its final evaluation seeds the next step (FSAL).
_A21 = 1 / 5
_A31, _A32 = 3 / 40, 9 / 40
_A41, _A42, _A43 = 44 / 45, -56 / 15, 32 / 9
_A51, _A52, _A53, _A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
_A61, _A62, _A63, _A64, _A65 = 9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656
_A71, _A73, _A74, _A75, _A76 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
_E1, _E3, _E4, _E5, _E6, _E7 = (
    71 / 57600, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40,
)

_D1 = -12715105075 / 11282082432
_D3 = 87487479700 / 32700410799
_D4 = -10690763975 / 1880347072
_D5 = 701980252875 / 199316789632
_D6 = -1453857185 / 822651844
_D7 = 69997945 / 29380423

# On x' = R x a step is y_new = P(hR) y with error estimate E(hR) y, where P and E
# are these stability polynomials of the tableau above, coefficients of z^0 .. z^7
# (Hairer & Wanner, Solving ODEs II, section IV.2).
_STEP_POLY = np.array([1.0, 1.0, 1 / 2, 1 / 6, 1 / 24, 1 / 120, 1 / 600, 0.0])
_ERROR_POLY = np.array([0.0, 0.0, 0.0, 0.0, 0.0, -97 / 120000, 13 / 40000, -1 / 24000])

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0
# PI step control exponents (error feedback plus damping on the previous step).
_PI_ALPHA = 0.17
_PI_BETA = 0.04
_UNDERFLOW = 1e-14


@dataclass(frozen=True)
class IntegratorConfig:
    rel_tol: float = 1e-9
    abs_tol: float = 1e-11
    max_step: float = 1.0
    initial_step: float = 1e-3

    def __post_init__(self):
        for name in ("rel_tol", "abs_tol", "max_step", "initial_step"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if not 0.0 < self.rel_tol < 1.0:
            raise ValueError(f"rel_tol must lie in (0, 1), got {self.rel_tol}")
        if not 0.0 < self.abs_tol < 1.0:
            raise ValueError(f"abs_tol must lie in (0, 1), got {self.abs_tol}")
        if self.max_step <= 0.0:
            raise ValueError(f"max_step must be positive, got {self.max_step}")
        if self.initial_step <= 0.0:
            raise ValueError(f"initial_step must be positive, got {self.initial_step}")


class IntegrationError(RuntimeError):
    """Step size underflowed; `t_last` is the last successfully reached time."""

    def __init__(self, message: str, t_last: float):
        super().__init__(message)
        self.t_last = t_last


def _stages(rhs, y, h, k1):
    k2 = rhs(y + (h * _A21) * k1)
    k3 = rhs(y + h * (_A31 * k1 + _A32 * k2))
    k4 = rhs(y + h * (_A41 * k1 + _A42 * k2 + _A43 * k3))
    k5 = rhs(y + h * (_A51 * k1 + _A52 * k2 + _A53 * k3 + _A54 * k4))
    k6 = rhs(y + h * (_A61 * k1 + _A62 * k2 + _A63 * k3 + _A64 * k4 + _A65 * k5))
    y_new = y + h * (_A71 * k1 + _A73 * k3 + _A74 * k4 + _A75 * k5 + _A76 * k6)
    return k3, k4, k5, k6, y_new


class Dopri5:
    """Stateful adaptive stepper; advance with step(t_limit), never past it.

    The last stage of an accepted step is the first of the next (FSAL), so
    a step takes 6 rhs evaluations. A real y0 is stepped as float64 and any
    other as complex128, so a real vector field runs in real arithmetic.

    `norm_size` is the number of entries the RMS error norm averages over
    (default: the size of y0). A caller that integrates only the nonzero
    block of a larger state, whose other entries stay exactly zero, passes
    the larger state's size so that the steps are those of the larger run.
    """

    def __init__(self, rhs: Callable[[np.ndarray], np.ndarray], t0: float, y0: np.ndarray,
                 cfg: IntegratorConfig, norm_size: int | None = None):
        self.rhs = rhs
        self.t = float(t0)
        self.y = np.array(y0, dtype=complex if np.iscomplexobj(y0) else float)
        self.cfg = cfg
        self._norm_weight = 1.0 if norm_size is None else self.y.size / norm_size
        self.h = min(cfg.initial_step, cfg.max_step)
        self._err_prev = 1e-4
        self._k1: np.ndarray | None = None  # rhs(self.y), formed by the first trial that reads it
        self._last: tuple | None = None  # (t_old, h, y_old, k1) of the last step

    def _trial(self, h: float) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """One uncontrolled step of size h from self.y: the new state, its error
        estimate and its last stage, the first of the next step (FSAL)."""
        rhs = self.rhs
        k1 = self._k1 = rhs(self.y) if self._k1 is None else self._k1
        k3, k4, k5, k6, y_new = _stages(rhs, self.y, h, k1)
        k7 = rhs(y_new)
        err = h * (_E1 * k1 + _E3 * k3 + _E4 * k4 + _E5 * k5 + _E6 * k6 + _E7 * k7)
        return y_new, err, k7

    def step(self, t_limit: float) -> None:
        """Take one accepted step toward t_limit (clamped to land on it)."""
        if t_limit <= self.t:
            raise ValueError(f"t_limit {t_limit} not ahead of current time {self.t}")
        cfg = self.cfg
        y = self.y
        abs_tol, rel_tol = cfg.abs_tol, cfg.rel_tol
        while True:
            h = min(self.h, cfg.max_step, t_limit - self.t)
            hits_limit = h >= t_limit - self.t
            if h < _UNDERFLOW * max(abs(self.t), 1.0):
                raise IntegrationError(
                    f"step size underflow at t = {self.t:.6g} (stiffness or non-finite state)",
                    t_last=self.t,
                )
            with np.errstate(over="ignore", invalid="ignore"):
                y_new, err, k_next = self._trial(h)
                scale = abs_tol + rel_tol * np.maximum(np.abs(y), np.abs(y_new))
                ratio = np.abs(err) / scale
                err_norm = float(np.sqrt(np.mean(ratio * ratio) * self._norm_weight))
            if not np.isfinite(err_norm) or not np.isfinite(y_new).all():
                self.h = h * _MIN_FACTOR
                continue

            if err_norm <= 1.0:
                t_old = self.t
                self.t = t_limit if hits_limit else self.t + h
                self._last = (t_old, h, y, self._k1)
                self._k1 = k_next
                self.y = y_new
                if err_norm == 0.0:
                    factor = _MAX_FACTOR
                else:
                    factor = _SAFETY * err_norm ** (-_PI_ALPHA) * self._err_prev ** _PI_BETA
                    factor = min(_MAX_FACTOR, max(_MIN_FACTOR, factor))
                self.h = h * factor
                self._err_prev = max(err_norm, 1e-4)
                return
            self.h = h * min(1.0, max(_MIN_FACTOR, _SAFETY * err_norm ** (-_PI_ALPHA)))

    def interpolate(self, t: float) -> np.ndarray:
        """Dense-output state inside the last accepted step (4th order)."""
        if self._last is None:
            raise RuntimeError("no accepted step to interpolate in")
        t_old, h, y_old, k1 = self._last
        theta = (t - t_old) / h
        if not -1e-9 <= theta <= 1.0 + 1e-9:
            raise ValueError(f"time {t} outside the last step [{t_old}, {t_old + h}]")
        if theta >= 1.0:
            return self.y.copy()
        if theta <= 0.0:
            return y_old.copy()
        k3, k4, k5, k6, _ = _stages(self.rhs, y_old, h, k1)
        k7 = self._k1  # the next step's first stage (FSAL)
        diff = self.y - y_old
        bspl = h * k1 - diff
        r4 = diff - h * k7 - bspl
        r5 = h * (_D1 * k1 + _D3 * k3 + _D4 * k4 + _D5 * k5 + _D6 * k6 + _D7 * k7)
        return y_old + theta * (diff + (1.0 - theta) * (bspl + theta * (r4 + (1.0 - theta) * r5)))


def fixed_step(rhs: Callable[[np.ndarray], np.ndarray], y0: np.ndarray, h: float | np.ndarray,
               k1: np.ndarray | None = None) -> np.ndarray:
    """Single fixed 5th-order step, no error control; h may be a column of per-row steps."""
    if k1 is None:
        k1 = rhs(y0)
    return _stages(rhs, y0, h, k1)[-1]


def iter_instants(rhs: Callable[[np.ndarray], np.ndarray], y0: np.ndarray,
                  instants: Sequence[float], cfg: IntegratorConfig,
                  norm_size: int | None = None) -> Iterator[np.ndarray]:
    """Propagate dy/dt = rhs(y), yielding the state at each requested instant.

    `instants` must be strictly increasing; the first entry is the initial
    time and the first state yielded is a copy of y0. `norm_size` is passed
    on to Dopri5.
    """
    instants = [float(t) for t in instants]
    if any(b <= a for a, b in zip(instants, instants[1:])):
        raise ValueError("output instants must be strictly increasing")
    stepper = Dopri5(rhs, instants[0], y0, cfg, norm_size=norm_size)
    yield stepper.y.copy()
    for target in instants[1:]:
        while stepper.t < target:
            stepper.step(target)
        yield stepper.y.copy()


class _PolynomialDopri5(Dopri5):
    """Dopri5 on y' = R y for a constant square matrix R, each trial step taken
    as its stability polynomials: y_new = P(hR) y and error estimate E(hR) y.

    The powers of R are formed once. R enters them scaled by 2^-s, with its
    largest absolute row sum at most 1, so no power overflows; each step
    carries the scale in (h 2^s)^j as numpy floats, where an overflow is an
    inf coefficient and a rejected step, not an exception. A step takes two
    products of R's size instead of six, and no stages, so there is no dense
    output.
    """

    _orders = np.arange(1, len(_STEP_POLY))  # z^1 .. z^7
    _poly = np.array([_STEP_POLY[1:], _ERROR_POLY[1:]])  # P - 1 and E on those powers

    def __init__(self, generator: np.ndarray, y0: np.ndarray, cfg: IntegratorConfig,
                 norm_size: int | None = None):
        super().__init__(lambda y: generator @ y, 0.0, y0, cfg, norm_size=norm_size)
        with np.errstate(over="ignore", invalid="ignore"):
            row_sum = np.max(np.abs(generator).sum(axis=1), initial=0.0)
            self._shift = max(int(np.frexp(row_sum)[1]), 0)
            scaled = generator * np.ldexp(1.0, -self._shift)
            powers = [scaled]
            for _ in self._orders[1:]:
                powers.append(powers[-1] @ scaled)
        self._powers = np.array(powers).reshape(len(powers), -1)

    def _trial(self, h: float) -> tuple[np.ndarray, np.ndarray, None]:
        y = self.y
        z = np.ldexp(np.float64(h), self._shift) ** self._orders
        # P(hR) - 1 over E(hR): one (2n, n) array for n x n powers
        step_and_error = ((self._poly * z) @ self._powers).reshape(-1, len(y))
        change = step_and_error @ y
        return y + change[:len(y)], change[len(y):], None


def propagator(
    generator: np.ndarray,
    h: float,
    cfg: IntegratorConfig,
    norm_size: int | None = None,
) -> np.ndarray:
    """exp(generator * h) for a square generator, by Dopri5 run on the identity.

    Column j is the evolution of basis vector j, all k columns stepped
    together at cfg's tolerances under Dopri5's step control, each trial
    step taken as the tableau's stability polynomial in h * generator
    (_PolynomialDopri5). That is the stage solve of iter_instants on the
    identity up to rounding, which can only tip a step decision that lies
    on the tolerance, for two k x k products a step instead of six. `norm_size` is passed on to Dopri5: the squared
    scaled errors of all k^2 entries are summed and divided by norm_size
    (default k^2, a plain RMS), so a caller that passes the size N of one
    state it will propagate weights the norm by k^2 / N. That bounds the
    step error of the propagator, not of the products with it, which
    compound over a grid. No eigendecomposition is used: the generator may
    be defective, as at the exceptional point g = gamma/4. A real generator
    gives a real propagator, stepped in real arithmetic.
    """
    h = float(h)
    stepper = _PolynomialDopri5(generator, np.eye(len(generator), dtype=generator.dtype), cfg,
                                norm_size=norm_size)
    while stepper.t < h:
        stepper.step(h)
    return stepper.y
