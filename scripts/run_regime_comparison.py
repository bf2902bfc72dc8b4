#!/usr/bin/env python3
"""Three-way comparison of the decay curve across coupling regimes.

For each linewidth/coupling ratio the excited population of a resonant
two-level emitter is computed three ways: the damped-ancilla reduction, the
memory-kernel amplitude equation, and a discretized-bath unitary evolution.
Writes one CSV per regime and prints the pairwise max deviations.
"""

import argparse
import warnings
from pathlib import Path

import numpy as np

from pseudomode import (
    BathRecurrenceWarning,
    DensityMatrix,
    EmbeddingSpec,
    IntegratorConfig,
    Lorentzian,
    TimeGrid,
    discrete_bath_evolve,
    simulate_lorentzian,
    tls_system,
    volterra_amplitude,
)
from pseudomode.cli import write_csv

# (gamma, n_modes, window half-width in linewidths); the broad line needs the
# finer mode spacing that keeps the bath recurrence time (pi * n_modes / W)
# at least twice the default horizon t1 = 10, the narrow line needs the wider
# window that covers the dressed doublet
REGIMES = ((10.0, 1600, 20.0), (1.0, 400, 20.0), (0.2, 400, 20.0))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results", help="output directory")
    parser.add_argument("--t1", type=float, default=10.0)
    parser.add_argument("--n-points", type=int, default=201)
    args = parser.parse_args()

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    grid = TimeGrid(0.0, args.t1, args.n_points)
    tight = IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12)
    excited = DensityMatrix.fock(2, 1)

    print(f"{'gamma/g':>8} {'|pm-vol|':>12} {'|pm-disc|':>12} {'|vol-disc|':>12}")
    for gamma, n_modes, w_factor in REGIMES:
        bath = Lorentzian(g=1.0, omega0=0.0, gamma=gamma)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            states = simulate_lorentzian(EmbeddingSpec(tls_system(), bath, 3),
                                         excited, grid, tight)
        with warnings.catch_warnings():
            # a reference that echoes inside the horizon is no reference
            warnings.simplefilter("error", BathRecurrenceWarning)
            disc = discrete_bath_evolve(tls_system(), bath, n_modes,
                                        w_factor * gamma, grid)
        pm = np.array([st.mat[1, 1].real for st in states])
        vol = volterra_amplitude(bath, grid, h=min(0.002, 0.04 / gamma))
        d_pv = np.max(np.abs(pm - vol.p_excited))
        d_pd = np.max(np.abs(pm - disc.p_excited))
        d_vd = np.max(np.abs(vol.p_excited - disc.p_excited))
        print(f"{gamma:8.2f} {d_pv:12.3e} {d_pd:12.3e} {d_vd:12.3e}")

        path = out_dir / f"regime_gamma_{gamma:g}.csv"
        write_csv(path, [
            ("t", grid.times()),
            ("P_e_pseudomode", pm),
            ("P_e_volterra", vol.p_excited),
            ("P_e_discrete_bath", disc.p_excited),
        ])
        print(f"  -> {path}")


if __name__ == "__main__":
    main()
