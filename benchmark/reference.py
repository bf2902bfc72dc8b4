"""Closed-form decay curves and the output checks built on them.

Nothing here imports the package under test: every expected curve is
computed from the scenario document's own parameters.

On resonance the excited-state amplitude of an emitter coupled with strength
g to a Lorentzian line of full width gamma solves

    c'' + (gamma/2) c' + g^2 c = 0,   c(0) = 1,  c'(0) = 0,

so c(t) = exp(-gamma t/4) [cosh(W t) + (gamma/(4 W)) sinh(W t)] with
W = sqrt(gamma^2/16 - g^2), which is oscillatory for g > gamma/4 and
becomes exp(-gamma t/4) (1 + gamma t/4) at the exceptional point g = gamma/4.
A truncated oscillator started in Fock state n0 exchanges quanta with the
ancilla without creating any, so its mean occupation is n0 |c(t)|^2 exactly.
A flat bath gives the Markovian decay exp(-f2 t).
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

# Largest allowed |program - closed form|, per scenario kind. The Lindblad
# solves run at rel_tol 1e-9 and land within 5e-10 today; the reference
# solvers keep acceptance criterion 1's tolerances (1e-4 Volterra, 2e-3 bath).
LINDBLAD_TOL = 1e-6
VOLTERRA_TOL = 1e-4
DISCRETE_BATH_TOL = 2e-3
# A trajectory mean may stray by JUMP_K exact standard errors plus
# JUMP_FLOOR_TRAJ / n_traj. The band uses the binomial standard error of the
# closed form, not the ensemble's reported one: before the first jumps the
# reported error is ~1e-9 while the true deviation is of order 1 / n_traj, and
# a band on the reported error fails about one pass in fifty (t = 0.4, no jump
# drawn yet). With these constants the chance that a correct 1000-trajectory
# ensemble of the shipped config leaves the band anywhere is below 2e-7.
JUMP_K = 6.0
JUMP_FLOOR_TRAJ = 3.0
# The deviation columns of a compare run are |a - b| of the printed columns.
DIFF_COLUMN_TOL = 1e-15


class CheckFailure(AssertionError):
    """A program output disagrees with the closed-form reference."""


def _cosh_sinhc(t: np.ndarray, g: float, gamma: float) -> tuple[np.ndarray, np.ndarray]:
    """cosh(W t) and sinh(W t) / W, continued through W^2 = gamma^2/16 - g^2 <= 0."""
    quarter = gamma / 4.0
    q = quarter * quarter - g * g
    if q > 0.0:
        w = math.sqrt(q)
        x = w * t
        safe = np.where(x == 0.0, 1.0, x)
        return np.cosh(x), t * np.where(x == 0.0, 1.0, np.sinh(safe) / safe)
    if q < 0.0:
        w = math.sqrt(-q)
        return np.cos(w * t), t * np.sinc(w * t / np.pi)
    return np.ones_like(t), t


def amplitude(t, g: float, gamma: float) -> np.ndarray:
    """Resonant excited-state amplitude c(t) for a Lorentzian line."""
    t = np.asarray(t, dtype=float)
    cosh, sinhc = _cosh_sinhc(t, g, gamma)
    return np.exp(-gamma * t / 4.0) * (cosh + gamma / 4.0 * sinhc)


def ancilla_amplitude(t, g: float, gamma: float) -> np.ndarray:
    """b(t) = -c'(t) / g: the one-quantum ancilla amplitude (up to phase) of the same solution."""
    t = np.asarray(t, dtype=float)
    return g * np.exp(-gamma * t / 4.0) * _cosh_sinhc(t, g, gamma)[1]


def expected_curve(doc: dict, t: np.ndarray) -> np.ndarray:
    """Exact system observable (P_e, or n_mean for the oscillator) for a config."""
    system = doc["system"]
    if system.get("detuning", 0.0) != 0.0:
        raise ValueError("the closed form covers resonant scenarios only")
    n0 = system.get("initial_fock", 1)
    bath = doc["bath"]
    if bath["kind"] == "flat":
        if n0 != 1 or system["preset"] != "tls_sigma_minus":
            raise ValueError("the flat-bath closed form covers the excited two-level emitter")
        return np.exp(-bath["f2"] * t)
    return n0 * amplitude(t, bath["g"], bath["gamma"]) ** 2


def read_csv(path: Path) -> dict[str, np.ndarray]:
    """Columns of a CSV written by `pseudomode run`, keyed by header name."""
    with open(path, encoding="ascii") as f:
        header = f.readline().rstrip("\n").split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if data.shape[1] != len(header):
        raise CheckFailure(f"{path.name}: {data.shape[1]} columns under {len(header)} names")
    return {name: data[:, j] for j, name in enumerate(header)}


def check_close(label: str, got: np.ndarray, want: np.ndarray, tol: float) -> float:
    """Max |got - want|; raises CheckFailure beyond tol or on shape/finiteness."""
    got = np.asarray(got, dtype=float)
    if got.shape != want.shape:
        raise CheckFailure(f"{label}: shape {got.shape}, expected {want.shape}")
    if not np.isfinite(got).all():
        raise CheckFailure(f"{label}: non-finite values")
    dev = float(np.max(np.abs(got - want)))
    if dev > tol:
        raise CheckFailure(f"{label}: max deviation {dev:.3e} exceeds {tol:.1e}")
    return dev


def ensemble_stderr(doc: dict, t: np.ndarray) -> np.ndarray:
    """Exact standard error of the P_e trajectory mean for the two-level emitter.

    A no-jump trajectory carries c|e,0> + b|g,1>, so it has jumped by t with
    probability p = 1 - c^2 - b^2, after which P_e = 0 for good; until then
    P_e = c^2 / (c^2 + b^2). The mean of n trajectories therefore has standard
    error P_nj sqrt(p (1 - p) / n).
    """
    system, bath = doc["system"], doc["bath"]
    if (system["preset"] != "tls_sigma_minus" or system.get("initial_fock", 1) != 1
            or bath["kind"] != "lorentzian"):
        raise ValueError("the ensemble check covers the excited two-level emitter only")
    c2 = amplitude(t, bath["g"], bath["gamma"]) ** 2
    b2 = ancilla_amplitude(t, bath["g"], bath["gamma"]) ** 2
    jumped = np.clip(1.0 - c2 - b2, 0.0, 1.0)
    p_no_jump = c2 / (c2 + b2)
    return p_no_jump * np.sqrt(jumped * (1.0 - jumped) / doc["trajectories"]["n_traj"])


def check_ensemble(label: str, mean: np.ndarray, stderr: np.ndarray, want: np.ndarray,
                   exact_stderr: np.ndarray, n_traj: int) -> float:
    """Largest deviation in units of the band JUMP_K exact_stderr + floor."""
    if mean.shape != want.shape or stderr.shape != want.shape:
        raise CheckFailure(f"{label}: shape {mean.shape}, expected {want.shape}")
    if not (np.isfinite(mean).all() and np.isfinite(stderr).all()) or (stderr < 0).any():
        raise CheckFailure(f"{label}: non-finite values or negative standard errors")
    band = JUMP_K * exact_stderr + JUMP_FLOOR_TRAJ / n_traj
    ratio = np.abs(mean - want) / band
    i = int(np.argmax(ratio))
    if ratio[i] > 1.0:
        raise CheckFailure(
            f"{label}: |mean - exact| = {abs(mean[i] - want[i]):.3e} at instant {i} "
            f"exceeds {JUMP_K:g} exact stderr + {JUMP_FLOOR_TRAJ:g}/n_traj = {band[i]:.3e}"
        )
    return float(ratio[i])


def check_output(doc: dict, path: Path) -> None:
    """Check one scenario's CSV against the closed form; raise CheckFailure if wrong."""
    cols = read_csv(path)
    grid = doc["time"]
    t = np.linspace(grid.get("t0", 0.0), grid["t1"], grid["n_points"])
    check_close(f"{path.name}:t", cols.get("t", np.empty(0)), t, 1e-12 * max(1.0, grid["t1"]))
    want = expected_curve(doc, t)
    name = "n_mean" if doc["system"]["preset"] == "oscillator" else "P_e"
    scale = max(1.0, float(np.max(want)))

    def column(key: str) -> np.ndarray:
        if key not in cols:
            raise CheckFailure(f"{path.name}: missing column {key!r}; got {sorted(cols)}")
        return cols[key]

    kind = doc["scenario"]
    if kind in ("markovian", "pseudomode"):
        check_close(f"{path.name}:{name}", column(name), want, LINDBLAD_TOL * scale)
    elif kind == "volterra":
        check_close(f"{path.name}:P_e", column("P_e"), want, VOLTERRA_TOL)
    elif kind == "discrete_bath":
        check_close(f"{path.name}:P_e", column("P_e"), want, DISCRETE_BATH_TOL)
    elif kind == "compare":
        curves = {
            "pseudomode": (column("P_e_pseudomode"), LINDBLAD_TOL),
            "volterra": (column("P_e_volterra"), VOLTERRA_TOL),
            "discrete_bath": (column("P_e_discrete_bath"), DISCRETE_BATH_TOL),
        }
        for key, (values, tol) in curves.items():
            check_close(f"{path.name}:P_e_{key}", values, want, tol)
        for a, b in (("pseudomode", "volterra"), ("pseudomode", "discrete_bath"),
                     ("volterra", "discrete_bath")):
            check_close(f"{path.name}:abs_diff_{a}_{b}", column(f"abs_diff_{a}_{b}"),
                        np.abs(curves[a][0] - curves[b][0]), DIFF_COLUMN_TOL)
    elif kind == "trajectories":
        check_ensemble(f"{path.name}:{name}_mean", column(f"{name}_mean"),
                       column(f"{name}_stderr"), want, ensemble_stderr(doc, t),
                       doc["trajectories"]["n_traj"])
    else:
        raise ValueError(f"no closed-form check for scenario kind {kind!r}")
