"""Scenario runner: parse a JSON config, simulate, and emit CSV curves.

Usage: pseudomode run <config.json> [--out DIR] [--seed N] [--quiet]

Exit codes: 0 success, 2 config error, 3 integration failure,
4 ancilla-truncation failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .algebra import DensityMatrix, Operator, expectation, identity, kron
from .baths import Flat, Lorentzian, markovian_rate
from .config import ConfigError, ScenarioConfig, load_scenario
from .dynamics import LindbladModel, evolve
from .embedding import (
    EmbeddingSpec,
    TruncationError,
    _truncation_ladder,
    build_embedding,
    choose_truncation,
    simulate_lorentzian,
)
from .integrators import IntegrationError
from .oracles import discrete_bath_evolve, volterra_amplitude
from .trajectories import TrajectoryConfig, ensemble_average

_DEFAULT_STEP_FRACTION = 0.01


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


def _markovian_model(cfg: ScenarioConfig) -> LindbladModel:
    if isinstance(cfg.bath, Flat):
        rate = cfg.bath.f2
    else:
        rate = markovian_rate(cfg.bath, cfg.bath.omega0 + _detuning_of(cfg))
    return LindbladModel(dim=cfg.system.d_S, H=cfg.system.H_S,
                         jumps=((rate, cfg.system.V),))


def _resolve_d_a(cfg: ScenarioConfig) -> int:
    if cfg.d_A != "auto":
        return int(cfg.d_A)
    return choose_truncation(
        cfg.system, cfg.bath, _initial_density(cfg), cfg.grid, cfg.integrator,
        tol=cfg.truncation_tol,
    )


def _volterra_step(cfg: ScenarioConfig) -> float:
    if cfg.h is not None:
        return cfg.h
    scale = max(cfg.bath.g, cfg.bath.gamma, 1e-12)
    return _DEFAULT_STEP_FRACTION / scale


def _half_width(cfg: ScenarioConfig) -> float:
    return cfg.half_width if cfg.half_width is not None else 20.0 * cfg.bath.gamma


def _detuning_of(cfg: ScenarioConfig) -> float:
    h = cfg.system.H_S.mat
    return float(np.real(h[1, 1] - h[0, 0]))


def _pseudomode_curve(cfg: ScenarioConfig) -> np.ndarray:
    if cfg.d_A == "auto":
        # the ladder already computed the curve at the d_A it certifies
        _, states = _truncation_ladder(
            cfg.system, cfg.bath, _initial_density(cfg), cfg.grid, cfg.integrator,
            cfg.truncation_tol,
        )
    else:
        states = simulate_lorentzian(
            EmbeddingSpec(cfg.system, cfg.bath, int(cfg.d_A)), _initial_density(cfg),
            cfg.grid, cfg.integrator,
        )
    obs = _system_observable(cfg)
    return np.array([expectation(obs, st).real for st in states])


def run_scenario(cfg: ScenarioConfig, out_dir: Path, quiet: bool = False) -> Path:
    """Execute one scenario and return the path of the CSV it wrote."""
    out_dir.mkdir(parents=True, exist_ok=True)
    out_path = out_dir / cfg.output
    times = cfg.grid.times()
    name = _observable_name(cfg)

    def say(msg: str) -> None:
        if not quiet:
            print(msg)

    if cfg.scenario == "markovian":
        states = evolve(_markovian_model(cfg), _initial_density(cfg), cfg.grid, cfg.integrator)
        obs = _system_observable(cfg)
        curve = np.array([expectation(obs, st).real for st in states])
        write_csv(out_path, [("t", times), (name, curve)])
        say(f"markovian: {name}(t1) = {curve[-1]:.9g}")

    elif cfg.scenario == "pseudomode":
        curve = _pseudomode_curve(cfg)
        write_csv(out_path, [("t", times), (name, curve)])
        say(f"pseudomode: {name}(t1) = {curve[-1]:.9g}")

    elif cfg.scenario == "volterra":
        traj = volterra_amplitude(cfg.bath, cfg.grid, _volterra_step(cfg),
                                  detuning=_detuning_of(cfg))
        write_csv(out_path, [("t", times), ("P_e", traj.p_excited)])
        say(f"volterra: P_e(t1) = {traj.p_excited[-1]:.9g}")

    elif cfg.scenario == "discrete_bath":
        traj = discrete_bath_evolve(cfg.system, cfg.bath, cfg.n_modes,
                                    _half_width(cfg), cfg.grid)
        write_csv(out_path, [("t", times), ("P_e", traj.p_excited)])
        say(f"discrete_bath: P_e(t1) = {traj.p_excited[-1]:.9g}")

    elif cfg.scenario == "trajectories":
        if isinstance(cfg.bath, Lorentzian):
            d_a = _resolve_d_a(cfg)
            emb = build_embedding(EmbeddingSpec(cfg.system, cfg.bath, d_a), _initial_density(cfg))
            model = emb.model
            psi0 = np.zeros(model.dim, dtype=complex)
            psi0[cfg.initial_fock * d_a] = 1.0
            obs = kron(_system_observable(cfg), identity(d_a))
        else:
            model = _markovian_model(cfg)
            psi0 = np.zeros(model.dim, dtype=complex)
            psi0[cfg.initial_fock] = 1.0
            obs = _system_observable(cfg)
        tcfg = TrajectoryConfig(n_traj=cfg.n_traj, seed=cfg.seed, grid=cfg.grid,
                                integrator=cfg.integrator)
        stats = ensemble_average(model, psi0, tcfg, observables=(obs,))
        write_csv(out_path, [
            ("t", times),
            (f"{name}_mean", stats.means[0].real),
            (f"{name}_stderr", stats.stderrs[0]),
        ])
        say(f"trajectories: n_traj = {cfg.n_traj}, "
            f"{name}_mean(t1) = {stats.means[0][-1].real:.9g}")

    elif cfg.scenario == "compare":
        pm = _pseudomode_curve(cfg)
        vol = volterra_amplitude(cfg.bath, cfg.grid, _volterra_step(cfg),
                                 detuning=_detuning_of(cfg)).p_excited
        disc = discrete_bath_evolve(cfg.system, cfg.bath, cfg.n_modes,
                                    _half_width(cfg), cfg.grid).p_excited
        d_pv = np.abs(pm - vol)
        d_pd = np.abs(pm - disc)
        d_vd = np.abs(vol - disc)
        write_csv(out_path, [
            ("t", times),
            ("P_e_pseudomode", pm),
            ("P_e_volterra", vol),
            ("P_e_discrete_bath", disc),
            ("abs_diff_pseudomode_volterra", d_pv),
            ("abs_diff_pseudomode_discrete_bath", d_pd),
            ("abs_diff_volterra_discrete_bath", d_vd),
        ])
        say(f"compare: max |pseudomode - volterra|      = {d_pv.max():.6e}")
        say(f"compare: max |pseudomode - discrete_bath| = {d_pd.max():.6e}")
        say(f"compare: max |volterra - discrete_bath|   = {d_vd.max():.6e}")

    else:  # pragma: no cover - parse_scenario already rejects unknown kinds
        raise ConfigError(f"unknown scenario kind {cfg.scenario!r}")

    say(f"wrote {out_path}")
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
    except TruncationError as exc:
        print(f"truncation failure: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
