"""Reservoir spectral densities, their correlation functions, and rates.

Two models are in scope: a flat (white, memoryless) spectrum described only
by its constant weight f^2, and a Lorentzian line of integrated weight g^2,
center omega0 and full width gamma. The flat spectrum's delta correlation is
never sampled; it enters the code only as the Lindblad rate f^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .algebra import _is_int


@dataclass(frozen=True)
class Flat:
    """White spectrum: constant weight f2, equal to the Markovian decay rate."""

    f2: float

    def __post_init__(self):
        if not math.isfinite(self.f2):
            raise ValueError(f"flat spectral weight must be finite, got {self.f2}")
        if self.f2 < 0.0:
            raise ValueError(f"flat spectral weight must be nonnegative, got {self.f2}")


@dataclass(frozen=True)
class Lorentzian:
    """Lorentzian line g^2 * gamma / ((omega - omega0)^2 + (gamma/2)^2)."""

    g: float
    omega0: float
    gamma: float

    def __post_init__(self):
        for name in ("g", "omega0", "gamma"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"Lorentzian {name} must be finite, got {value}")
        if self.g < 0.0:
            raise ValueError(f"coupling g must be nonnegative, got {self.g}")
        if self.gamma <= 0.0:
            raise ValueError(f"linewidth gamma must be positive, got {self.gamma}")


SpectralDensity = Union[Flat, Lorentzian]


def _line_shape(sd: SpectralDensity, detuning):
    """Coupling-weighted spectral density at a detuning from the line center."""
    detuning = np.asarray(detuning, dtype=float)
    if isinstance(sd, Flat):
        out = np.full_like(detuning, sd.f2)
    elif isinstance(sd, Lorentzian):
        # 2^p ~ g and 2^q ~ max(|detuning|, gamma) scale out exactly: finite wherever representable
        p, q = np.frexp(sd.g)[1], np.frexp(np.maximum(np.abs(detuning), sd.gamma))[1]
        g, gamma, detuning = np.ldexp(sd.g, -p), np.ldexp(sd.gamma, -q), np.ldexp(detuning, -q)
        with np.errstate(over="ignore"):
            out = np.ldexp(g**2 * gamma / (detuning**2 + (gamma / 2.0) ** 2), 2 * p - q)
    else:
        raise TypeError(f"unknown spectral density {type(sd).__name__}")
    return float(out) if out.ndim == 0 else out


def spectral_density_eval(sd: SpectralDensity, omega):
    """Coupling-weighted spectral density at omega (scalar or array)."""
    center = sd.omega0 if isinstance(sd, Lorentzian) else 0.0
    return _line_shape(sd, np.asarray(omega, dtype=float) - center)


def correlation_function(sd: SpectralDensity, tau):
    """Reservoir field correlation g^2 exp(-i omega0 tau - gamma |tau| / 2).

    Only defined for the Lorentzian model; the flat spectrum's correlation
    is a delta function and is represented by markovian_rate instead.
    """
    if isinstance(sd, Flat):
        raise ValueError(
            "flat spectrum has a delta correlation; use markovian_rate for its Lindblad rate"
        )
    if not isinstance(sd, Lorentzian):
        raise TypeError(f"unknown spectral density {type(sd).__name__}")
    tau = np.asarray(tau, dtype=float)
    out = sd.g**2 * np.exp(-1j * sd.omega0 * tau - 0.5 * sd.gamma * np.abs(tau))
    return complex(out) if out.ndim == 0 else out


def markovian_rate(sd: SpectralDensity, omega_system: float) -> float:
    """Effective Lindblad decay rate: the spectral weight at the system frequency."""
    return float(spectral_density_eval(sd, omega_system))


def verify_fourier_pair(
    sd: Lorentzian,
    tau_grid,
    omega_half_width: float | None = None,
    n_quad: int = 20001,
) -> float:
    """Max residual between the quadrature Fourier transform and the closed form.

    The transform integral(J(omega) exp(-i omega tau)) d omega / 2 pi is
    evaluated by composite trapezoid on a uniform grid spanning
    omega0 +/- omega_half_width (default 40 gamma). The caller must pick the
    window wide enough that the truncated Lorentzian tails, of order
    g^2 gamma / (pi * W) at tau = 0, stay below the residual they target.
    """
    if not isinstance(sd, Lorentzian):
        raise TypeError("Fourier-pair check applies to the Lorentzian model only")
    if omega_half_width is None:
        omega_half_width = 40.0 * sd.gamma
    if not (_is_int(n_quad) and n_quad >= 2):
        raise ValueError(f"n_quad must be an integer >= 2, got {n_quad!r}")
    if not (math.isfinite(omega_half_width) and omega_half_width > 0.0):
        raise ValueError(f"omega_half_width must be positive and finite, got {omega_half_width!r}")
    taus = np.asarray(tau_grid, dtype=float).reshape(-1)
    omegas = np.linspace(sd.omega0 - omega_half_width, sd.omega0 + omega_half_width, n_quad)
    weights = spectral_density_eval(sd, omegas)
    phases = np.exp(-1j * np.outer(taus, omegas))
    transformed = np.trapezoid(phases * weights, omegas, axis=1) / (2.0 * np.pi)
    return float(np.max(np.abs(transformed - correlation_function(sd, taus))))
