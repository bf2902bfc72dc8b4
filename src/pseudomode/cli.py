"""Scenario runner: parse a JSON config, simulate, and emit CSV curves.

Usage: pseudomode run <config.json> [--out DIR] [--seed N] [--quiet]

The config's `output` is a plain file name, written inside --out.

Exit codes: 0 success (also when stdout closes before the summary: the CSV
is complete by then), 2 config error, 3 integration failure (the step size
underflowed), invariant failure (a computed state is not Hermitian, not of
unit trace or not positive; no CSV is written) or jump failure (a jump found
every channel at zero weight), 4 ancilla-truncation failure.

Every Lindblad scenario runs through _lindblad on embedding's one stacked
curve core (the markovian one with no ancilla), on the real coordinates
that dynamics.evolve integrates adaptively too.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from dataclasses import replace
from itertools import combinations
from pathlib import Path

import numpy as np

from .algebra import DensityMatrix, DensityMatrixError, Operator, identity, kron
from .baths import _line_shape
from .config import ConfigError, ScenarioConfig, load_scenario
from .dynamics import LindbladModel
from .embedding import (
    EmbeddingSpec,
    TruncationError,
    _composite,
    _detuning,
    _reduced_curve,
    _truncation_ladder,
)
from .integrators import IntegrationError
from .oracles import discrete_bath_evolve, volterra_amplitude
from .trajectories import JumpDegeneracyError, TrajectoryConfig, ensemble_average

# What a scenario runner returns: the CSV columns that follow "t".
Columns = list[tuple[str, np.ndarray]]
# CSV rows formatted and written at a time: a bounded string, however long the grid
_CSV_CHUNK_ROWS = 4096


def _csv_chunks(columns: Columns):
    """The rows of write_csv, _CSV_CHUNK_ROWS at a time, each chunk one % format."""
    arrays = [np.asarray(vals) for _, vals in columns]
    row = ",".join(["%.17g"] * len(arrays)) + "\n"
    for start in range(0, len(arrays[0]), _CSV_CHUNK_ROWS):
        chunk = np.column_stack([a[start:start + _CSV_CHUNK_ROWS] for a in arrays])
        yield row * len(chunk) % tuple(chunk.ravel().tolist())


def write_csv(path: Path, columns: list[tuple[str, np.ndarray]]) -> None:
    """Plain CSV: '.' decimals, '\\n' line endings, 17 significant digits."""
    f = open(path, "w", encoding="ascii", newline="")
    try:
        with f:
            f.write(",".join(name for name, _ in columns) + "\n")
            f.writelines(_csv_chunks(columns))
    except BaseException:
        if path.is_file():  # no partial CSV; a device such as /dev/full stays
            path.unlink()
        raise


def _observable_name(cfg: ScenarioConfig) -> str:
    return "P_e" if cfg.preset == "tls_sigma_minus" else "n_mean"


def _system_observable(cfg: ScenarioConfig) -> Operator:
    return cfg.system.V.dagger() @ cfg.system.V


def _initial_density(cfg: ScenarioConfig) -> DensityMatrix:
    return DensityMatrix.fock(cfg.system.d_S, cfg.initial_fock)


def _markovian_model(cfg: ScenarioConfig) -> LindbladModel:
    rate = _line_shape(cfg.bath, _detuning(cfg.system))
    if not np.isfinite(rate):
        raise ConfigError(f"{cfg.bath} has a markovian rate past the float range")
    return LindbladModel(dim=cfg.system.d_S, H=cfg.system.H_S,
                         jumps=((rate, cfg.system.V),))


def _ancilla(cfg: ScenarioConfig) -> tuple[int, np.ndarray | None]:
    """Ancilla levels of the scenario's Lindblad run, as parse_scenario resolved them (1:
    none). At d_A = "auto" also the reduced curve the ladder certified, else None."""
    if cfg.d_A == "auto":
        return _truncation_ladder(cfg.system, cfg.bath, _initial_density(cfg), cfg.grid,
                                  cfg.integrator, cfg.truncation_tol)
    return cfg.d_A, None


def _model(cfg: ScenarioConfig, d_a: int) -> tuple[LindbladModel, np.ndarray]:
    """The markovian model (d_a = 1) or the system + ancilla one, and its initial matrix."""
    if d_a == 1:
        return _markovian_model(cfg), _initial_density(cfg).mat
    return _composite(EmbeddingSpec(cfg.system, cfg.bath, d_a), _initial_density(cfg))


def _lindblad(cfg: ScenarioConfig) -> Columns:
    """tr(A rho) of the reduced states, one einsum over the (n_t, d_S, d_S) stack."""
    d_a, states = _ancilla(cfg)
    if states is None:
        states = _reduced_curve(*_model(cfg, d_a), d_a, cfg.grid, cfg.integrator)
    return [(_observable_name(cfg),
             np.einsum("ij,tji->t", _system_observable(cfg).mat, states).real)]


def _volterra(cfg: ScenarioConfig) -> Columns:
    traj = volterra_amplitude(cfg.bath, cfg.grid, cfg.h, detuning=_detuning(cfg.system))
    return [("P_e", traj.p_excited)]


def _discrete_bath(cfg: ScenarioConfig) -> Columns:
    traj = discrete_bath_evolve(cfg.system, cfg.bath, cfg.n_modes, cfg.half_width, cfg.grid)
    return [("P_e", traj.p_excited)]


def _trajectories(cfg: ScenarioConfig) -> Columns:
    d_a, _ = _ancilla(cfg)
    model, rho0 = _model(cfg, d_a)
    obs = kron(_system_observable(cfg), identity(d_a))
    psi0 = np.sqrt(np.diagonal(rho0))  # rho0 is the Fock product state |psi0><psi0|
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
    "markovian": _lindblad,
    "pseudomode": _lindblad,
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
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"--out {out_dir} cannot be a directory: {exc.strerror}") from None
    out_path = out_dir / cfg.output
    try:
        is_dir = out_path.is_dir()
    except OSError as exc:  # such as a name longer than the file system allows
        raise ConfigError(f"output {out_path} cannot be a file: {exc.strerror or exc}") from None
    if is_dir:
        raise ConfigError(f"output {out_path} is a directory")
    columns = _RUNNERS[cfg.scenario](cfg)
    try:
        write_csv(out_path, [("t", cfg.grid.times()), *columns])
    except OSError as exc:
        raise ConfigError(f"cannot write {out_path}: {exc.strerror or exc}") from None
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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parse_args keeps no state in it."""
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
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)

    try:
        cfg = load_scenario(args.config)
        if args.seed is not None:
            if cfg.scenario != "trajectories":
                raise ConfigError("--seed only applies to the 'trajectories' scenario")
            if not 0 <= args.seed < 1 << 64:
                raise ConfigError(f"--seed must be in [0, 2^64), got {args.seed}")
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
