"""The benchmark's workloads: which scenario configs one pass runs.

Every scenario is a config document run through `pseudomode run`. Checked-in
configs are read from the repository's `configs/`; generated ones are written
next to the run's output so that the CLI parses them exactly as a user's file.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# The five deterministic configs shipped in configs/.
_TLS_CONFIGS = (
    "markovian_tls.json",
    "pseudomode_strong_coupling.json",
    "volterra_strong_coupling.json",
    "discrete_bath_strong_coupling.json",
    "compare_strong_coupling.json",
)
# gamma / g for the generated two-level scenarios; 4 is the exceptional point.
_TLS_GAMMAS = (10.0, 4.0, 1.0)
# (d_S, gamma) rungs of the oscillator truncation ladder.
_OSCILLATOR_RUNGS = ((4, 0.2), (6, 1.0))

_TIME = {"t0": 0.0, "t1": 10.0, "n_points": 201}


@dataclass(frozen=True)
class Scenario:
    path: Path  # config file handed to the CLI
    doc: dict  # the same document, parsed apart from the program for checking


def _tls_doc(kind: str, gamma: float) -> dict:
    doc = {
        "scenario": kind,
        "system": {"preset": "tls_sigma_minus"},
        "bath": {"kind": "lorentzian", "g": 1.0, "omega0": 5.0, "gamma": gamma},
        "time": dict(_TIME),
        "output": f"{kind}_gamma{gamma:g}.csv",
    }
    if kind == "pseudomode":
        doc["numerics"] = {"d_A": 3}
    return doc


def _oscillator_doc(d_s: int, gamma: float) -> dict:
    return {
        "scenario": "pseudomode",
        "system": {"preset": "oscillator", "d_S": d_s, "initial_fock": d_s - 1},
        "bath": {"kind": "lorentzian", "g": 1.0, "omega0": 5.0, "gamma": gamma},
        "time": dict(_TIME),
        "numerics": {"d_A": "auto"},
        "output": f"oscillator_dS{d_s}_gamma{gamma:g}.csv",
    }


# workload -> (shipped config names, generated config documents)
_WORKLOADS = {
    "tls_regimes": (_TLS_CONFIGS, [_tls_doc(kind, gamma) for kind in ("pseudomode", "volterra")
                                   for gamma in _TLS_GAMMAS]),
    "oscillator_ladder": ((), [_oscillator_doc(d_s, gamma) for d_s, gamma in _OSCILLATOR_RUNGS]),
    "jump_ensemble": (("trajectories_embedded.json",), []),
}
WORKLOADS = tuple(_WORKLOADS)


def scenarios(workload: str, repo: Path, work: Path) -> list[Scenario]:
    """The workload's fixed scenario list; generated configs go to work/configs."""
    shipped, generated = _WORKLOADS[workload]
    out = []
    for name in shipped:
        path = repo / "configs" / name
        out.append(Scenario(path, json.loads(path.read_text(encoding="utf-8"))))
    gen_dir = work / "configs"
    gen_dir.mkdir(parents=True, exist_ok=True)
    for doc in generated:
        path = gen_dir / doc["output"].replace(".csv", ".json")
        path.write_text(json.dumps(doc, indent=1) + "\n", encoding="ascii")
        out.append(Scenario(path, doc))
    return out


def pass_seed(seed: int, index: int) -> int:
    """Trajectory seed of pass `index`, derived from the benchmark seed."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1, np.uint32)[0])


def pass_order(seed: int, index: int, n: int) -> list[int]:
    """Seeded order in which pass `index` runs the n scenarios."""
    return [int(i) for i in np.random.default_rng([seed, index]).permutation(n)]
