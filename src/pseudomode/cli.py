"""Scenario runner: parse a JSON config, simulate, and emit CSV curves.

Usage: pseudomode run <config.json> [--out DIR] [--seed N] [--quiet]

The config's `output` is a plain file name, written inside --out.

Exit codes: 0 success (also when stdout closes before the summary: the CSV
is complete by then), 2 config error, 3 integration failure (the step size
underflowed), invariant failure (a computed state is not Hermitian, not of
unit trace or not positive; no CSV is written) or jump failure (a jump found
every channel at zero weight), 4 ancilla-truncation failure.

Every Lindblad scenario runs on embedding's one stacked grid-step core (the
markovian one with no ancilla); dynamics.evolve is the adaptive entry point.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from itertools import combinations
from pathlib import Path

import numpy as np

from .algebra import DensityMatrix, DensityMatrixError, Operator, identity, kron
from .baths import Flat, Lorentzian, markovian_rate
from .config import ConfigError, ScenarioConfig, load_scenario
from .dynamics import LindbladModel
from .embedding import (
    EmbeddingSpec,
    TruncationError,
    _composite,
    _reduced_curve,
    _truncation_ladder,
    build_embedding,
    choose_truncation,
)
from .integrators import IntegrationError
from .oracles import discrete_bath_evolve, volterra_amplitude
from .trajectories import JumpDegeneracyError, TrajectoryConfig, ensemble_average

_DEFAULT_STEP_FRACTION = 0.01

# What a scenario runner returns: the CSV columns that follow "t".
Columns = list[tuple[str, np.ndarray]]


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def write_csv(path: Path, columns: list[tuple[str, np.ndarray]]) -> None:
    """Plain CSV: '.' decimals, '\\n' line endings, 17 significant digits."""
    expanded: list[tuple[str, np.ndarray]] = []
    for name, values in columns:
        values = np.asarray(values)
        if np.iscomplexobj(values):
            expanded.append((f"{name}_re", values.real))
            expanded.append((f"{name}_im", values.imag))
        else:
            expanded.append((name, values))
    n_rows = len(expanded[0][1])
    with open(path, "w", encoding="ascii", newline="") as f:
        f.write(",".join(name for name, _ in expanded) + "\n")
        for i in range(n_rows):
            f.write(",".join(_fmt(vals[i]) for _, vals in expanded) + "\n")


def _observable_name(cfg: ScenarioConfig) -> str:
    return "P_e" if cfg.preset == "tls_sigma_minus" else "n_mean"


def _system_observable(cfg: ScenarioConfig) -> Operator:
    return cfg.system.V.dagger() @ cfg.system.V


def _initial_density(cfg: ScenarioConfig) -> DensityMatrix:
    return DensityMatrix.fock(cfg.system.d_S, cfg.initial_fock)


def _detuning_of(cfg: ScenarioConfig) -> float:
    h = cfg.system.H_S.mat
    return float(np.real(h[1, 1] - h[0, 0]))


def _markovian_model(cfg: ScenarioConfig) -> LindbladModel:
    if isinstance(cfg.bath, Flat):
        rate = cfg.bath.f2
    else:
        rate = markovian_rate(cfg.bath, cfg.bath.omega0 + _detuning_of(cfg))
    return LindbladModel(dim=cfg.system.d_S, H=cfg.system.H_S,
                         jumps=((rate, cfg.system.V),))


def _expectations(cfg: ScenarioConfig, states: np.ndarray) -> np.ndarray:
    """tr(A rho) at every instant of an (n_t, d_S, d_S) stack of system states."""
    return np.einsum("ij,tji->t", _system_observable(cfg).mat, states).real


def _markovian(cfg: ScenarioConfig) -> Columns:
    states = _reduced_curve(_markovian_model(cfg), _initial_density(cfg).mat, 1, cfg.grid,
                            cfg.integrator)
    return [(_observable_name(cfg), _expectations(cfg, states))]


def _pseudomode(cfg: ScenarioConfig) -> Columns:
    if cfg.d_A == "auto":
        # the ladder already computed the curve at the d_A it certifies
        _, states = _truncation_ladder(
            cfg.system, cfg.bath, _initial_density(cfg), cfg.grid, cfg.integrator,
            cfg.truncation_tol,
        )
    else:
        model, rho0 = _composite(EmbeddingSpec(cfg.system, cfg.bath, cfg.d_A),
                                 _initial_density(cfg))
        states = _reduced_curve(model, rho0, cfg.d_A, cfg.grid, cfg.integrator)
    return [(_observable_name(cfg), _expectations(cfg, states))]


def _volterra(cfg: ScenarioConfig) -> Columns:
    h = cfg.h
    if h is None:
        h = _DEFAULT_STEP_FRACTION / max(cfg.bath.g, cfg.bath.gamma, 1e-12)
    traj = volterra_amplitude(cfg.bath, cfg.grid, h, detuning=_detuning_of(cfg))
    return [("P_e", traj.p_excited)]


def _discrete_bath(cfg: ScenarioConfig) -> Columns:
    half_width = cfg.half_width if cfg.half_width is not None else 20.0 * cfg.bath.gamma
    traj = discrete_bath_evolve(cfg.system, cfg.bath, cfg.n_modes, half_width, cfg.grid)
    return [("P_e", traj.p_excited)]


def _trajectories(cfg: ScenarioConfig) -> Columns:
    if isinstance(cfg.bath, Lorentzian):
        d_a = cfg.d_A
        if d_a == "auto":
            d_a = choose_truncation(cfg.system, cfg.bath, _initial_density(cfg), cfg.grid,
                                    cfg.integrator, tol=cfg.truncation_tol)
        emb = build_embedding(EmbeddingSpec(cfg.system, cfg.bath, d_a), _initial_density(cfg))
        model = emb.model
        obs = kron(_system_observable(cfg), identity(d_a))
    else:
        d_a = 1  # no ancilla: the system's Fock index is its state index
        model = _markovian_model(cfg)
        obs = _system_observable(cfg)
    psi0 = np.zeros(model.dim, dtype=complex)
    psi0[cfg.initial_fock * d_a] = 1.0
    tcfg = TrajectoryConfig(n_traj=cfg.n_traj, seed=cfg.seed, grid=cfg.grid,
                            integrator=cfg.integrator)
    stats = ensemble_average(model, psi0, tcfg, observables=(obs,))
    name = _observable_name(cfg)
    return [(f"{name}_mean", stats.means[0].real), (f"{name}_stderr", stats.stderrs[0])]


_COMPARED = ("pseudomode", "volterra", "discrete_bath")


def _compare(cfg: ScenarioConfig) -> Columns:
    curves = {kind: _RUNNERS[kind](cfg)[0][1] for kind in _COMPARED}
    return [
        *((f"P_e_{kind}", curves[kind]) for kind in _COMPARED),
        *((f"abs_diff_{a}_{b}", np.abs(curves[a] - curves[b]))
          for a, b in combinations(_COMPARED, 2)),
    ]


_RUNNERS = {
    "markovian": _markovian,
    "pseudomode": _pseudomode,
    "volterra": _volterra,
    "discrete_bath": _discrete_bath,
    "trajectories": _trajectories,
    "compare": _compare,
}


def _summary(cfg: ScenarioConfig, columns: Columns) -> list[str]:
    if cfg.scenario == "compare":
        lines = []
        for (a, b), (_, diff) in zip(combinations(_COMPARED, 2), columns[len(_COMPARED):]):
            label = f"max |{a} - {b}|"
            lines.append(f"compare: {label:<32} = {diff.max():.6e}")
        return lines
    ensemble = f"n_traj = {cfg.n_traj}, " if cfg.scenario == "trajectories" else ""
    name, curve = columns[0]
    return [f"{cfg.scenario}: {ensemble}{name}(t1) = {curve[-1]:.9g}"]


def run_scenario(cfg: ScenarioConfig, out_dir: Path, quiet: bool = False) -> Path:
    """Execute one scenario and return the path of the CSV it wrote."""
    out_dir.mkdir(parents=True, exist_ok=True)
    out_path = out_dir / cfg.output
    columns = _RUNNERS[cfg.scenario](cfg)
    write_csv(out_path, [("t", cfg.grid.times()), *columns])
    if not quiet:
        try:
            for line in _summary(cfg, columns):
                print(line)
            print(f"wrote {out_path}")
            sys.stdout.flush()
        except BrokenPipeError:
            # the CSV is complete and only the summary lost its reader; send
            # stdout to devnull so that the flush at exit cannot raise again
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
    return out_path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="pseudomode",
        description="Open-system dynamics with a Lorentzian reservoir, via a damped ancilla mode.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run a JSON scenario config")
    run_p.add_argument("config", help="path to the scenario JSON document")
    run_p.add_argument("--out", default=".", help="output directory (default: cwd)")
    run_p.add_argument("--seed", type=int, default=None, help="override trajectories seed")
    run_p.add_argument("--quiet", action="store_true", help="suppress progress output")
    args = parser.parse_args(argv)

    try:
        cfg = load_scenario(args.config)
        if args.seed is not None:
            if cfg.scenario != "trajectories":
                raise ConfigError("--seed only applies to the 'trajectories' scenario")
            cfg = replace(cfg, seed=args.seed)
        run_scenario(cfg, Path(args.out), quiet=args.quiet)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except IntegrationError as exc:
        print(f"integration failure: {exc} (last good time {exc.t_last:.6g})", file=sys.stderr)
        return 3
    except DensityMatrixError as exc:
        print(f"invariant failure: {exc}; tighten numerics.rel_tol and abs_tol",
              file=sys.stderr)
        return 3
    except JumpDegeneracyError as exc:
        print(f"jump failure: {exc}", file=sys.stderr)
        return 3
    except TruncationError as exc:
        print(f"truncation failure: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
