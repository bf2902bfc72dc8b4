"""Declarative JSON scenario configs for the command-line runner.

Parsing is strict: unknown or duplicated keys anywhere in the document are
hard errors, because a silently ignored typo in a physics parameter is the
worst failure mode a batch runner can have.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

from .baths import Flat, Lorentzian, SpectralDensity
from .dynamics import TimeGrid
from .embedding import SystemSpec, oscillator_system, tls_system
from .integrators import IntegratorConfig
from .oracles import check_volterra_step, check_window

SCENARIO_KINDS = (
    "markovian",
    "pseudomode",
    "volterra",
    "discrete_bath",
    "trajectories",
    "compare",
)
SYSTEM_PRESETS = ("tls_sigma_minus", "oscillator")
# the oscillator preset's operators are dense d_S x d_S arrays, built while parsing
MAX_OSCILLATOR_LEVELS = 1024


class ConfigError(ValueError):
    """Scenario document failed to parse or validate."""


@dataclass(frozen=True, eq=False)
class ScenarioConfig:
    scenario: str
    system: SystemSpec
    preset: str
    initial_fock: int
    bath: SpectralDensity
    grid: TimeGrid
    integrator: IntegratorConfig
    d_A: int | str  # positive int or "auto"
    truncation_tol: float
    n_modes: int
    half_width: float | None  # None means the 20-linewidth default
    h: float | None  # None means the conservative default step
    n_traj: int | None
    seed: int | None
    output: str


def _no_duplicates(pairs):
    seen = set()
    for key, _ in pairs:
        if key in seen:
            raise ConfigError(f"duplicate key '{key}' in config")
        seen.add(key)
    return dict(pairs)


def _check_keys(block: dict, allowed: set[str], required: set[str], ctx: str) -> None:
    unknown = set(block) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {ctx}; allowed: {sorted(allowed)}")
    missing = required - set(block)
    if missing:
        raise ConfigError(f"missing required key(s) {sorted(missing)} in {ctx}")


def _number(block: dict, key: str, ctx: str, default=None, *, positive=False, nonneg=False):
    if key not in block:
        return default
    val = block[key]
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ConfigError(f"{ctx}.{key} must be a number, got {val!r}")
    # JSON's NaN and Infinity, and literals such as 1e400, parse to non-finite
    # floats that every sign check below would let through; an integer literal
    # past the float range cannot be converted at all
    try:
        val = float(val)
    except OverflowError:
        val = math.inf
    if not math.isfinite(val):
        raise ConfigError(f"{ctx}.{key} must be finite, got {val}")
    if positive and val <= 0.0:
        raise ConfigError(f"{ctx}.{key} must be positive, got {val}")
    if nonneg and val < 0.0:
        raise ConfigError(f"{ctx}.{key} must be nonnegative, got {val}")
    return val


def _integer(block: dict, key: str, ctx: str, default=None, *, minimum=None, maximum=None):
    if key not in block:
        return default
    val = block[key]
    if isinstance(val, bool) or not isinstance(val, int):
        raise ConfigError(f"{ctx}.{key} must be an integer, got {val!r}")
    if minimum is not None and val < minimum:
        raise ConfigError(f"{ctx}.{key} must be >= {minimum}, got {val}")
    if maximum is not None and val > maximum:
        raise ConfigError(f"{ctx}.{key} must be <= {maximum}, got {val}")
    return val


def _parse_system(block) -> tuple[SystemSpec, str, int]:
    if not isinstance(block, dict):
        raise ConfigError("system block must be an object")
    _check_keys(block, {"preset", "d_S", "detuning", "initial_fock"}, {"preset"}, "system")
    preset = block["preset"]
    if preset not in SYSTEM_PRESETS:
        raise ConfigError(f"unknown system preset {preset!r}; choose from {SYSTEM_PRESETS}")
    detuning = _number(block, "detuning", "system", default=0.0)
    if preset == "tls_sigma_minus":
        d_s = _integer(block, "d_S", "system", default=2)
        if d_s != 2:
            raise ConfigError(f"preset tls_sigma_minus is two-level; got d_S = {d_s}")
        spec = tls_system(detuning)
    else:
        d_s = _integer(block, "d_S", "system", minimum=2, maximum=MAX_OSCILLATOR_LEVELS)
        if d_s is None:
            raise ConfigError("system.d_S is required for the oscillator preset")
        spec = oscillator_system(d_s, detuning)
    initial_fock = _integer(block, "initial_fock", "system", default=1, minimum=0)
    if initial_fock >= spec.d_S:
        raise ConfigError(f"system.initial_fock {initial_fock} outside 0..{spec.d_S - 1}")
    return spec, preset, initial_fock


def _parse_bath(block) -> SpectralDensity:
    if not isinstance(block, dict):
        raise ConfigError("bath block must be an object")
    kind = block.get("kind")
    if kind == "flat":
        _check_keys(block, {"kind", "f2"}, {"kind", "f2"}, "bath")
        return Flat(f2=_number(block, "f2", "bath", nonneg=True))
    if kind == "lorentzian":
        _check_keys(block, {"kind", "g", "omega0", "gamma"}, {"kind", "g", "gamma"}, "bath")
        return Lorentzian(
            g=_number(block, "g", "bath", nonneg=True),
            omega0=_number(block, "omega0", "bath", default=0.0),
            gamma=_number(block, "gamma", "bath", positive=True),
        )
    raise ConfigError(f"bath.kind must be 'flat' or 'lorentzian', got {kind!r}")


def _parse_time(block) -> TimeGrid:
    if not isinstance(block, dict):
        raise ConfigError("time block must be an object")
    _check_keys(block, {"t0", "t1", "n_points"}, {"t1", "n_points"}, "time")
    t0 = _number(block, "t0", "time", default=0.0)
    t1 = _number(block, "t1", "time")
    n_points = _integer(block, "n_points", "time", minimum=2)
    if t1 is None:
        raise ConfigError("time.t1 is required")
    if t1 <= t0:
        raise ConfigError(f"time.t1 must exceed t0, got [{t0}, {t1}]")
    try:
        return TimeGrid(t0=t0, t1=t1, n_points=n_points)
    except ValueError as exc:
        raise ConfigError(f"invalid time: {exc}") from exc


def parse_scenario(doc: dict) -> ScenarioConfig:
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    allowed = {"scenario", "system", "bath", "time", "numerics", "trajectories", "output"}
    _check_keys(doc, allowed, {"scenario", "system", "bath", "time", "output"}, "config")

    scenario = doc["scenario"]
    if scenario not in SCENARIO_KINDS:
        raise ConfigError(f"unknown scenario kind {scenario!r}; choose from {SCENARIO_KINDS}")

    system, preset, initial_fock = _parse_system(doc["system"])
    bath = _parse_bath(doc["bath"])
    grid = _parse_time(doc["time"])

    numerics = doc.get("numerics", {})
    if not isinstance(numerics, dict):
        raise ConfigError("numerics block must be an object")
    _check_keys(
        numerics,
        {"rel_tol", "abs_tol", "max_step", "initial_step", "d_A",
         "truncation_tol", "n_modes", "W", "h"},
        set(),
        "numerics",
    )
    try:
        integrator = IntegratorConfig(
            rel_tol=_number(numerics, "rel_tol", "numerics", default=1e-9, positive=True),
            abs_tol=_number(numerics, "abs_tol", "numerics", default=1e-11, positive=True),
            max_step=_number(numerics, "max_step", "numerics", default=1.0, positive=True),
            initial_step=_number(numerics, "initial_step", "numerics", default=1e-3, positive=True),
        )
    except ValueError as exc:
        raise ConfigError(f"invalid numerics: {exc}") from exc
    d_a = numerics.get("d_A", "auto")
    if d_a != "auto" and not (isinstance(d_a, int) and not isinstance(d_a, bool) and d_a >= 2):
        raise ConfigError(f"numerics.d_A must be an integer >= 2 or 'auto', got {d_a!r}")
    truncation_tol = _number(numerics, "truncation_tol", "numerics", default=1e-7, positive=True)
    n_modes = _integer(numerics, "n_modes", "numerics", default=400, minimum=50)
    half_width = _number(numerics, "W", "numerics", default=None, positive=True)
    h = _number(numerics, "h", "numerics", default=None, positive=True)

    needs_lorentzian = scenario in ("pseudomode", "volterra", "discrete_bath", "compare")
    if needs_lorentzian and not isinstance(bath, Lorentzian):
        raise ConfigError(f"scenario '{scenario}' requires a lorentzian bath")
    if scenario in ("volterra", "discrete_bath", "compare"):
        if preset != "tls_sigma_minus" or initial_fock != 1:
            raise ConfigError(
                f"scenario '{scenario}' requires the tls_sigma_minus preset with initial_fock 1 "
                "(single-excitation reference)"
            )
        if grid.t0 != 0.0:
            raise ConfigError(f"scenario '{scenario}' requires time.t0 = 0")
        try:
            if h is not None and scenario != "discrete_bath":
                check_volterra_step(bath, h)
            if half_width is not None and scenario != "volterra":
                check_window(bath, half_width)
        except ValueError as exc:
            raise ConfigError(f"invalid numerics: {exc}") from exc

    traj_block = doc.get("trajectories")
    n_traj = seed = None
    if scenario == "trajectories":
        if not isinstance(traj_block, dict):
            raise ConfigError("scenario 'trajectories' requires a trajectories block")
        _check_keys(traj_block, {"n_traj", "seed"}, {"n_traj", "seed"}, "trajectories")
        n_traj = _integer(traj_block, "n_traj", "trajectories", minimum=1)
        seed = _integer(traj_block, "seed", "trajectories")
    elif traj_block is not None:
        raise ConfigError("trajectories block is only valid for scenario 'trajectories'")

    # a plain name, so the CSV lands in the output directory itself
    output = doc["output"]
    if (not isinstance(output, str) or output in ("", ".", "..")
            or any(ch in output for ch in "/\\\0")):
        raise ConfigError(f"output must be a plain file name, got {output!r}")

    return ScenarioConfig(
        scenario=scenario,
        system=system,
        preset=preset,
        initial_fock=initial_fock,
        bath=bath,
        grid=grid,
        integrator=integrator,
        d_A=d_a,
        truncation_tol=truncation_tol,
        n_modes=n_modes,
        half_width=half_width,
        h=h,
        n_traj=n_traj,
        seed=seed,
        output=output,
    )


def load_scenario(path: str | Path) -> ScenarioConfig:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        doc = json.loads(text, object_pairs_hook=_no_duplicates)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return parse_scenario(doc)
