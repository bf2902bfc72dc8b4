"""Declarative JSON scenario configs for the command-line runner.

Parsing is strict: unknown or duplicated keys anywhere in the document are
hard errors, because a silently ignored typo in a physics parameter is the
worst failure mode a batch runner can have.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from pathlib import Path

from .baths import Flat, Lorentzian, SpectralDensity
from .dynamics import TimeGrid
from .embedding import MAX_COMPOSITE_DIM, SystemSpec, oscillator_system, tls_system
from .integrators import IntegratorConfig

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
# the discretized-bath reference costs O(n_modes^2) time and O(n_modes) memory
MAX_BATH_MODES = 8192
# unknowns of the Volterra trapezoid system; a run at 2**20 takes about 2.6 s
# and 200 MiB peak on a 2-core host
MAX_VOLTERRA_STEPS = 2**20
# integrator steps of size max_step across one output interval
MAX_STEPS_PER_INTERVAL = 10**5
# instants of the output grid; every stored curve and ensemble grows with it
MAX_OUTPUT_POINTS = 2**20
# trajectory instants, n_traj x n_points; the shipped trajectory model ran at
# 2.4e6 to 3.9e6 instants/s with 2 workers on a 2-core host, so a run at the
# bound takes about 35 to 60 s there
MAX_TRAJECTORY_INSTANTS = 2**27
# the Volterra step defaults to this fraction of 1 / max(g, gamma), the
# discretized bath's half-width to this many linewidths
_DEFAULT_STEP_FRACTION = 0.01
_DEFAULT_WINDOW_LINEWIDTHS = 20.0


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
    d_A: int | str  # int >= 2 or "auto"; 1 for a Lindblad run with no ancilla
    truncation_tol: float
    n_modes: int
    half_width: float | None  # None when the scenario builds no discretized bath
    h: float | None  # None when the scenario runs no Volterra solve
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
    else:
        d_s = _integer(block, "d_S", "system", minimum=2, maximum=MAX_OSCILLATOR_LEVELS)
        if d_s is None:
            raise ConfigError("system.d_S is required for the oscillator preset")
    # a finite detuning times the top Fock index can still overflow
    try:
        spec = (tls_system(detuning) if preset == "tls_sigma_minus"
                else oscillator_system(d_s, detuning))
    except ValueError as exc:
        raise ConfigError(f"invalid system: {exc}") from exc
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
    if n_points > MAX_OUTPUT_POINTS:
        raise ConfigError(
            f"time.n_points = {n_points} is above MAX_OUTPUT_POINTS = {MAX_OUTPUT_POINTS}"
        )
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
    given = {key: _number(numerics, key, "numerics", positive=True)
             for key in ("rel_tol", "abs_tol", "max_step", "initial_step") if key in numerics}
    try:
        integrator = IntegratorConfig(**given)
    except ValueError as exc:
        raise ConfigError(f"invalid numerics: {exc}") from exc
    d_a = numerics.get("d_A", "auto")
    if d_a != "auto" and not (isinstance(d_a, int) and not isinstance(d_a, bool) and d_a >= 2):
        raise ConfigError(f"numerics.d_A must be an integer >= 2 or 'auto', got {d_a!r}")
    if scenario == "markovian" or not isinstance(bath, Lorentzian):
        d_a = 1  # the Lindblad run of the markovian scenario or a flat bath has no ancilla
    elif (scenario in ("pseudomode", "trajectories", "compare") and d_a != "auto"
          and system.d_S * d_a > MAX_COMPOSITE_DIM):
        raise ConfigError(
            f"system.d_S x numerics.d_A = {system.d_S} x {d_a} is above "
            f"MAX_COMPOSITE_DIM = {MAX_COMPOSITE_DIM}; lower numerics.d_A or use 'auto'"
        )
    truncation_tol = _number(numerics, "truncation_tol", "numerics", default=1e-7, positive=True)
    n_modes = _integer(numerics, "n_modes", "numerics", default=400, minimum=50,
                       maximum=MAX_BATH_MODES)
    half_width = _number(numerics, "W", "numerics", positive=True)
    h = _number(numerics, "h", "numerics", positive=True)

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
        # only here: a config that runs no reference does not load them
        from .oracles import _volterra_substeps, build_discrete_bath, check_volterra_step

        # the defaults go in here, so that cfg.h and cfg.half_width are what the run uses
        if scenario == "discrete_bath":
            h = None
        elif h is None:
            h = _DEFAULT_STEP_FRACTION / max(bath.g, bath.gamma, 1e-12)
        if scenario == "volterra":
            half_width = None
        elif half_width is None:
            half_width = _DEFAULT_WINDOW_LINEWIDTHS * bath.gamma
        try:
            if h is not None:
                check_volterra_step(bath, h)
            if half_width is not None:
                build_discrete_bath(bath, n_modes, half_width)
        except ValueError as exc:
            raise ConfigError(f"invalid numerics: {exc}") from exc
        if h is not None:
            unknowns = _volterra_substeps(grid.dt, h) * (grid.n_points - 1)
            if unknowns > MAX_VOLTERRA_STEPS:
                raise ConfigError(
                    f"Volterra solve needs {unknowns:.7g} steps of h <= {h:g}, above "
                    f"MAX_VOLTERRA_STEPS = {MAX_VOLTERRA_STEPS}; raise numerics.h or shorten time"
                )
    else:
        h = half_width = None  # no run reads them; a given W or h is only type- and sign-checked
    if scenario in ("markovian", "pseudomode", "trajectories", "compare"):
        per_interval = grid.dt / integrator.max_step
        if per_interval > MAX_STEPS_PER_INTERVAL:
            raise ConfigError(
                f"output interval {grid.dt:g} spans {per_interval:.7g} integrator steps of "
                f"max_step {integrator.max_step:g}, above MAX_STEPS_PER_INTERVAL = "
                f"{MAX_STEPS_PER_INTERVAL}; raise time.n_points or numerics.max_step"
            )

    traj_block = doc.get("trajectories")
    n_traj = seed = None
    if scenario == "trajectories":
        if not isinstance(traj_block, dict):
            raise ConfigError("scenario 'trajectories' requires a trajectories block")
        _check_keys(traj_block, {"n_traj", "seed"}, {"n_traj", "seed"}, "trajectories")
        n_traj = _integer(traj_block, "n_traj", "trajectories", minimum=1)
        seed = _integer(traj_block, "seed", "trajectories", minimum=0, maximum=(1 << 64) - 1)
        if n_traj * grid.n_points > MAX_TRAJECTORY_INSTANTS:
            raise ConfigError(
                f"trajectories.n_traj x time.n_points = {n_traj} x {grid.n_points} is above "
                f"MAX_TRAJECTORY_INSTANTS = {MAX_TRAJECTORY_INSTANTS}; lower either"
            )
    elif traj_block is not None:
        raise ConfigError("trajectories block is only valid for scenario 'trajectories'")

    # a plain name, so the CSV lands in the output directory itself
    output = doc["output"]
    if (not isinstance(output, str) or output in ("", ".", "..")
            or any(ch in output for ch in "/\\\0")):
        raise ConfigError(f"output must be a plain file name, got {output!r}")
    try:
        os.fsencode(output)  # a lone surrogate, as JSON's "\ud800" gives, has no bytes
    except UnicodeEncodeError:
        raise ConfigError(f"output {output!r} cannot be encoded as a file name") from None

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
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config {path} is not UTF-8: {exc}") from None
    try:
        doc = json.loads(text, object_pairs_hook=_no_duplicates)
    except RecursionError:
        raise ConfigError(f"config {path} nests too deeply") from None
    except ValueError as exc:  # JSONDecodeError, or an integer literal past int's digit limit
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return parse_scenario(doc)
