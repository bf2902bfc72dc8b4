"""Tests of the benchmark's closed-form reference and of its output checks.

Run with: python -m pytest benchmark/test_closed_form.py
"""

import json
from pathlib import Path

import numpy as np
import pytest

from reference import (
    CheckFailure,
    amplitude,
    ancilla_amplitude,
    check_output,
    ensemble_stderr,
    expected_curve,
)
from tracing import LAYER_METRICS

BENCH_DIR = Path(__file__).resolve().parent


@pytest.mark.parametrize("gamma", [0.2, 1.0, 3.9, 4.0, 4.1, 10.0])
def test_amplitude_solves_the_memory_ode(gamma):
    g, h = 1.0, 1e-3
    t = np.linspace(0.05, 10.0, 400)
    c = amplitude(t, g, gamma)
    c_plus, c_minus = amplitude(t + h, g, gamma), amplitude(t - h, g, gamma)
    second = (c_plus - 2.0 * c + c_minus) / h**2
    first = (c_plus - c_minus) / (2.0 * h)
    residual = second + 0.5 * gamma * first + g * g * c
    assert np.max(np.abs(residual)) < 1e-5 * max(1.0, gamma) ** 2
    assert amplitude(0.0, g, gamma) == pytest.approx(1.0, abs=1e-15)
    slope0 = (amplitude(h, g, gamma) - amplitude(-h, g, gamma)) / (2.0 * h)
    assert abs(slope0) < 1e-5
    assert np.max(np.abs(first + g * ancilla_amplitude(t, g, gamma))) < 1e-5


def test_amplitude_is_continuous_across_the_exceptional_point():
    t = np.linspace(0.0, 10.0, 201)
    at_ep = amplitude(t, 1.0, 4.0)
    assert np.allclose(at_ep, np.exp(-t) * (1.0 + t), rtol=0, atol=1e-15)
    for eps in (1e-3, 1e-6, 1e-9):
        for gamma in (4.0 - eps, 4.0 + eps):
            assert np.max(np.abs(amplitude(t, 1.0, gamma) - at_ep)) < 10.0 * eps


def _tls_doc(kind: str, gamma: float = 0.2) -> dict:
    return {
        "scenario": kind,
        "system": {"preset": "tls_sigma_minus"},
        "bath": {"kind": "lorentzian", "g": 1.0, "omega0": 5.0, "gamma": gamma},
        "time": {"t0": 0.0, "t1": 10.0, "n_points": 201},
        "output": "out.csv",
    }


def _write(path: Path, columns: dict[str, np.ndarray]) -> Path:
    rows = np.column_stack(list(columns.values()))
    with open(path, "w", encoding="ascii") as f:
        f.write(",".join(columns) + "\n")
        for row in rows:
            f.write(",".join(format(float(v), ".17g") for v in row) + "\n")
    return path


@pytest.mark.parametrize("kind", ["pseudomode", "volterra", "discrete_bath"])
def test_checker_accepts_exact_and_rejects_perturbed_curves(tmp_path, kind):
    doc = _tls_doc(kind)
    t = np.linspace(0.0, 10.0, 201)
    exact = expected_curve(doc, t)
    check_output(doc, _write(tmp_path / "out.csv", {"t": t, "P_e": exact}))
    bumped = exact.copy()
    bumped[100] += 3e-3
    with pytest.raises(CheckFailure):
        check_output(doc, _write(tmp_path / "out.csv", {"t": t, "P_e": bumped}))
    wrong_width = expected_curve(_tls_doc(kind, gamma=0.21), t)
    with pytest.raises(CheckFailure):
        check_output(doc, _write(tmp_path / "out.csv", {"t": t, "P_e": wrong_width}))


def test_checker_rejects_a_wrong_oscillator_occupation(tmp_path):
    doc = {
        "scenario": "pseudomode",
        "system": {"preset": "oscillator", "d_S": 4, "initial_fock": 3},
        "bath": {"kind": "lorentzian", "g": 1.0, "omega0": 5.0, "gamma": 0.2},
        "time": {"t0": 0.0, "t1": 10.0, "n_points": 201},
        "output": "out.csv",
    }
    t = np.linspace(0.0, 10.0, 201)
    exact = 3.0 * amplitude(t, 1.0, 0.2) ** 2
    check_output(doc, _write(tmp_path / "out.csv", {"t": t, "n_mean": exact}))
    with pytest.raises(CheckFailure):
        check_output(doc, _write(tmp_path / "out.csv", {"t": t, "n_mean": exact * (1 + 1e-5)}))


def test_checker_rejects_an_ensemble_off_the_decay(tmp_path):
    doc = _tls_doc("trajectories")
    doc["trajectories"] = {"n_traj": 1000, "seed": 7}
    t = np.linspace(0.0, 10.0, 201)
    exact = expected_curve(doc, t)
    stderr = ensemble_stderr(doc, t)
    noisy = exact + 3.0 * stderr * np.sin(t)
    check_output(doc, _write(tmp_path / "out.csv",
                             {"t": t, "P_e_mean": noisy, "P_e_stderr": stderr}))
    markovian = np.exp(-(4.0 / 0.2) * t)  # memoryless decay at the rate 4 g^2 / gamma
    with pytest.raises(CheckFailure):
        check_output(doc, _write(tmp_path / "out.csv",
                                 {"t": t, "P_e_mean": markovian, "P_e_stderr": stderr}))


def test_checker_rejects_a_compare_deviation_column_that_does_not_match(tmp_path):
    doc = _tls_doc("compare")
    t = np.linspace(0.0, 10.0, 201)
    exact = expected_curve(doc, t)
    cols = {"t": t, "P_e_pseudomode": exact, "P_e_volterra": exact + 1e-5,
            "P_e_discrete_bath": exact - 1e-4}
    diffs = {
        "abs_diff_pseudomode_volterra": np.abs(cols["P_e_pseudomode"] - cols["P_e_volterra"]),
        "abs_diff_pseudomode_discrete_bath":
            np.abs(cols["P_e_pseudomode"] - cols["P_e_discrete_bath"]),
        "abs_diff_volterra_discrete_bath":
            np.abs(cols["P_e_volterra"] - cols["P_e_discrete_bath"]),
    }
    check_output(doc, _write(tmp_path / "out.csv", cols | diffs))
    diffs["abs_diff_volterra_discrete_bath"] = diffs["abs_diff_volterra_discrete_bath"] * 0.5
    with pytest.raises(CheckFailure):
        check_output(doc, _write(tmp_path / "out.csv", cols | diffs))


def test_layer_metric_table_matches_benchmark_json():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert declared == list(LAYER_METRICS)
