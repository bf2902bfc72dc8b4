import json
import os
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from pseudomode import (
    BathRecurrenceWarning,
    ConfigError,
    DensityMatrix,
    FockTruncationWarning,
    JumpDegeneracyError,
    Operator,
    TimeGrid,
    cli,
    dynamics,
    embedding,
    evolve,
    expectation,
    load_scenario,
    parse_scenario,
)
from pseudomode.cli import main
from pseudomode.config import SCENARIO_KINDS

REPO = Path(__file__).resolve().parent.parent
SHIPPED = sorted((REPO / "configs").glob("*.json"))


def base_doc(**overrides):
    doc = {
        "scenario": "markovian",
        "system": {"preset": "tls_sigma_minus"},
        "bath": {"kind": "flat", "f2": 1.0},
        "time": {"t0": 0.0, "t1": 1.0, "n_points": 11},
        "output": "out.csv",
    }
    doc.update(overrides)
    return doc


def write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def read_csv(path):
    lines = path.read_text().split("\n")
    header = lines[0].split(",")
    rows = np.array([[float(x) for x in ln.split(",")] for ln in lines[1:] if ln])
    return header, rows


class TestParsing:
    def test_minimal_document(self):
        cfg = parse_scenario(base_doc())
        assert cfg.scenario == "markovian"
        assert cfg.grid.n_points == 11

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_scenario(base_doc(extra=1))

    def test_unknown_nested_key(self):
        doc = base_doc()
        doc["bath"]["typo"] = 3
        with pytest.raises(ConfigError, match="typo"):
            parse_scenario(doc)

    def test_unknown_scenario(self):
        with pytest.raises(ConfigError, match="scenario"):
            parse_scenario(base_doc(scenario="magic"))

    def test_duplicate_keys_rejected(self, tmp_path):
        path = tmp_path / "dup.json"
        path.write_text('{"scenario": "markovian", "scenario": "compare"}')
        with pytest.raises(ConfigError, match="duplicate"):
            load_scenario(path)

    def test_invalid_dimension(self):
        doc = base_doc()
        doc["system"] = {"preset": "oscillator", "d_S": 1}
        with pytest.raises(ConfigError):
            parse_scenario(doc)

    def test_oracle_scenarios_require_tls(self):
        doc = base_doc(scenario="volterra")
        doc["bath"] = {"kind": "lorentzian", "g": 1.0, "gamma": 0.5}
        doc["system"] = {"preset": "oscillator", "d_S": 3}
        with pytest.raises(ConfigError, match="tls_sigma_minus"):
            parse_scenario(doc)

    def test_lorentzian_required_for_embedding(self):
        with pytest.raises(ConfigError, match="lorentzian"):
            parse_scenario(base_doc(scenario="pseudomode"))

    def test_trajectories_block_gated(self):
        doc = base_doc()
        doc["trajectories"] = {"n_traj": 10, "seed": 1}
        with pytest.raises(ConfigError, match="trajectories"):
            parse_scenario(doc)

    def test_negative_rate_rejected(self):
        doc = base_doc()
        doc["bath"] = {"kind": "flat", "f2": -1.0}
        with pytest.raises(ConfigError):
            parse_scenario(doc)

    @pytest.mark.parametrize("output", ["", ".", "..", "sub/x.csv", "/tmp/x.csv",
                                        "x.csv/", "sub\\x.csv", "x\0.csv", 3])
    def test_output_must_be_a_plain_file_name(self, output):
        with pytest.raises(ConfigError, match="output must be a plain file name"):
            parse_scenario(base_doc(output=output))

    def test_overflowing_time_span_rejected(self):
        doc = base_doc()
        doc["time"] = {"t0": -1e308, "t1": 1e308, "n_points": 3}
        with pytest.raises(ConfigError, match="overflows"):
            parse_scenario(doc)


class TestCliRuns:
    def test_markovian_decay_csv(self, tmp_path):
        doc = base_doc()
        doc["time"] = {"t0": 0.0, "t1": 2.0, "n_points": 21}
        path = write_config(tmp_path, doc)
        assert main(["run", str(path), "--out", str(tmp_path), "--quiet"]) == 0
        header, rows = read_csv(tmp_path / "out.csv")
        assert header == ["t", "P_e"]
        assert abs(rows[-1, 1] - np.exp(-2.0)) < 1e-6

    def test_compare_strong_coupling(self, tmp_path, capsys):
        doc = {
            "scenario": "compare",
            "system": {"preset": "tls_sigma_minus"},
            "bath": {"kind": "lorentzian", "g": 1.0, "omega0": 5.0, "gamma": 0.2},
            "time": {"t0": 0.0, "t1": 10.0, "n_points": 201},
            "numerics": {"d_A": 3, "rel_tol": 1e-10, "abs_tol": 1e-12},
            "output": "cmp.csv",
        }
        path = write_config(tmp_path, doc)
        assert main(["run", str(path), "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "max |pseudomode - volterra|" in out
        header, rows = read_csv(tmp_path / "cmp.csv")
        assert header[:4] == ["t", "P_e_pseudomode", "P_e_volterra", "P_e_discrete_bath"]
        assert rows[:, 4].max() < 1e-4  # pseudomode vs volterra column
        assert rows[:, 5].max() < 2e-3  # pseudomode vs discrete bath

    def test_byte_identical_reruns(self, tmp_path):
        doc = {
            "scenario": "trajectories",
            "system": {"preset": "tls_sigma_minus"},
            "bath": {"kind": "flat", "f2": 1.0},
            "time": {"t0": 0.0, "t1": 1.0, "n_points": 11},
            "numerics": {"rel_tol": 1e-6, "abs_tol": 1e-9},
            "trajectories": {"n_traj": 200, "seed": 11},
            "output": "traj.csv",
        }
        path = write_config(tmp_path, doc)
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(["run", str(path), "--out", str(out_a), "--quiet"]) == 0
        assert main(["run", str(path), "--out", str(out_b), "--quiet"]) == 0
        assert (out_a / "traj.csv").read_bytes() == (out_b / "traj.csv").read_bytes()

    def test_seed_override_changes_output(self, tmp_path):
        doc = {
            "scenario": "trajectories",
            "system": {"preset": "tls_sigma_minus"},
            "bath": {"kind": "flat", "f2": 1.0},
            "time": {"t0": 0.0, "t1": 1.0, "n_points": 6},
            "numerics": {"rel_tol": 1e-6, "abs_tol": 1e-9},
            "trajectories": {"n_traj": 100, "seed": 11},
            "output": "traj.csv",
        }
        path = write_config(tmp_path, doc)
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(["run", str(path), "--out", str(out_a), "--quiet"]) == 0
        assert main(["run", str(path), "--out", str(out_b), "--seed", "12", "--quiet"]) == 0
        assert (out_a / "traj.csv").read_bytes() != (out_b / "traj.csv").read_bytes()

    def test_oscillator_observable_column(self, tmp_path):
        doc = base_doc()
        doc["system"] = {"preset": "oscillator", "d_S": 4, "initial_fock": 2}
        path = write_config(tmp_path, doc)
        assert main(["run", str(path), "--out", str(tmp_path), "--quiet"]) == 0
        header, rows = read_csv(tmp_path / "out.csv")
        assert header == ["t", "n_mean"]
        assert rows[0, 1] == pytest.approx(2.0)

    @pytest.mark.parametrize("gamma", [4.0, 0.2])
    def test_oscillator_auto_truncation_matches_closed_form(self, tmp_path, monkeypatch, gamma):
        # gamma = 4 g is the exceptional point, where W = 0 and the two
        # single-excitation modes of the system-ancilla pair coalesce
        g, n0 = 1.0, 3
        doc = {
            "scenario": "pseudomode",
            "system": {"preset": "oscillator", "d_S": 4, "initial_fock": n0},
            "bath": {"kind": "lorentzian", "g": g, "omega0": 5.0, "gamma": gamma},
            "time": {"t0": 0.0, "t1": 10.0, "n_points": 101},
            "numerics": {"d_A": "auto"},
            "output": "osc.csv",
        }
        path = write_config(tmp_path, doc)
        curves = []
        real_curve = embedding._reduced_curve

        def counted(model, rho0, d_A, *args):
            curves.append(d_A)
            return real_curve(model, rho0, d_A, *args)

        for module in (cli, embedding):
            monkeypatch.setattr(module, "_reduced_curve", counted)
        assert main(["run", str(path), "--out", str(tmp_path), "--quiet"]) == 0
        # the ladder certifies d_A = 4 against 8; its curve at 4 is written as is
        assert curves == [2, 4, 8]
        _, rows = read_csv(tmp_path / "osc.csv")
        t = rows[:, 0]
        k = gamma / 4.0
        w = np.sqrt(complex(k * k - g * g))
        if w == 0:
            c = np.exp(-k * t) * (1.0 + k * t)
        else:
            c = (np.exp(-k * t) * (np.cosh(w * t) + k / w * np.sinh(w * t))).real
        assert np.max(np.abs(rows[:, 1] - n0 * c**2)) <= 1e-8

    def test_one_runner_per_scenario_kind(self):
        assert tuple(cli._RUNNERS) == SCENARIO_KINDS

    @pytest.mark.parametrize("config", sorted((REPO / "configs").glob("compare_gamma_*.json")),
                             ids=lambda p: p.stem)
    def test_regime_comparison_configs(self, tmp_path, config):
        # criterion 1's bounds, against a discretized bath that must not echo
        with warnings.catch_warnings():
            warnings.simplefilter("error", BathRecurrenceWarning)
            assert main(["run", str(config), "--out", str(tmp_path), "--quiet"]) == 0
        header, rows = read_csv(tmp_path / json.loads(config.read_text())["output"])
        assert header[4:6] == ["abs_diff_pseudomode_volterra",
                               "abs_diff_pseudomode_discrete_bath"]
        assert rows[:, 4].max() < 1e-4
        assert rows[:, 5].max() < 2e-3

    def test_csv_full_precision_round_trip(self, tmp_path):
        path = write_config(tmp_path, base_doc())
        assert main(["run", str(path), "--out", str(tmp_path), "--quiet"]) == 0
        text = (tmp_path / "out.csv").read_text()
        assert "\r" not in text
        header, rows = read_csv(tmp_path / "out.csv")
        assert rows[1, 1] != round(rows[1, 1], 6)  # more than 6 significant digits survive


class TestExitCodes:
    def test_config_error_is_2(self, tmp_path, capsys):
        path = write_config(tmp_path, base_doc(scenario="nope"))
        assert main(["run", str(path), "--out", str(tmp_path)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_missing_file_is_2(self, tmp_path):
        assert main(["run", str(tmp_path / "absent.json"), "--out", str(tmp_path)]) == 2

    def test_invalid_json_is_2(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["run", str(path), "--out", str(tmp_path)]) == 2

    def test_seed_override_outside_trajectories_is_2(self, tmp_path):
        path = write_config(tmp_path, base_doc())
        assert main(["run", str(path), "--out", str(tmp_path), "--seed", "3"]) == 2

    def test_integration_failure_is_3(self, tmp_path, capsys):
        doc = {
            "scenario": "pseudomode",
            "system": {"preset": "tls_sigma_minus"},
            "bath": {"kind": "lorentzian", "g": 1.0, "omega0": 0.0, "gamma": 1e200},
            "time": {"t0": 0.0, "t1": 1.0, "n_points": 3},
            "numerics": {"d_A": 2},
            "output": "x.csv",
        }
        path = write_config(tmp_path, doc)
        assert main(["run", str(path), "--out", str(tmp_path)]) == 3
        assert "integration failure" in capsys.readouterr().err

    def test_truncation_failure_is_4(self, tmp_path, capsys):
        # consecutive truncations agree only to integrator roundoff (~1e-9
        # here); a tolerance below that floor exhausts the doubling ladder
        doc = {
            "scenario": "pseudomode",
            "system": {"preset": "tls_sigma_minus"},
            "bath": {"kind": "lorentzian", "g": 1.0, "omega0": 0.0, "gamma": 0.5},
            "time": {"t0": 0.0, "t1": 0.5, "n_points": 3},
            "numerics": {"d_A": "auto", "truncation_tol": 1e-12,
                         "rel_tol": 1e-5, "abs_tol": 1e-8},
            "output": "x.csv",
        }
        path = write_config(tmp_path, doc)
        assert main(["run", str(path), "--out", str(tmp_path)]) == 4
        assert "truncation failure" in capsys.readouterr().err

    @pytest.mark.parametrize("scenario, bath, invariant", [
        ("markovian", {"kind": "flat", "f2": 50.0}, "trace"),
        ("pseudomode", {"kind": "lorentzian", "g": 1.0, "omega0": 5.0, "gamma": 0.2},
         "eigenvalue"),
    ])
    def test_broken_density_matrix_is_3(self, tmp_path, capsys, scenario, bath, invariant):
        # tolerances this loose let the integrator step straight off the state space
        doc = {
            "scenario": scenario,
            "system": {"preset": "tls_sigma_minus"},
            "bath": bath,
            "time": {"t0": 0.0, "t1": 5.0, "n_points": 3},
            "numerics": {"d_A": 3, "rel_tol": 0.9, "abs_tol": 0.9,
                         "max_step": 1.0, "initial_step": 1.0},
            "output": "x.csv",
        }
        path = write_config(tmp_path, doc)
        assert main(["run", str(path), "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("invariant failure: density matrix") and err.count("\n") == 1
        assert invariant in err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("block, key, value", [
        ("bath", "g", float("nan")),
        ("time", "t1", float("inf")),
        ("time", "t0", float("-inf")),
    ])
    def test_non_finite_number_is_2(self, tmp_path, capsys, block, key, value):
        # json.dumps writes these as the JSON extensions NaN, Infinity, -Infinity
        doc = {
            "scenario": "pseudomode",
            "system": {"preset": "tls_sigma_minus"},
            "bath": {"kind": "lorentzian", "g": 1.0, "omega0": 0.0, "gamma": 1.0},
            "time": {"t0": 0.0, "t1": 1.0, "n_points": 3},
            "numerics": {"d_A": 2},
            "output": "x.csv",
        }
        doc[block][key] = value
        path = write_config(tmp_path, doc)
        assert main(["run", str(path), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1
        assert f"{block}.{key} must be finite" in err

    @pytest.mark.parametrize("value", ["abc", "0"])
    def test_bad_worker_count_is_2(self, tmp_path, capsys, monkeypatch, value):
        doc = {
            "scenario": "trajectories",
            "system": {"preset": "tls_sigma_minus"},
            "bath": {"kind": "flat", "f2": 1.0},
            "time": {"t0": 0.0, "t1": 1.0, "n_points": 3},
            "trajectories": {"n_traj": 4, "seed": 1},
            "output": "traj.csv",
        }
        path = write_config(tmp_path, doc)
        monkeypatch.setenv("PSEUDOMODE_NUM_THREADS", value)
        assert main(["run", str(path), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: PSEUDOMODE_NUM_THREADS")
        assert len(err.strip().splitlines()) == 1
        assert not (tmp_path / "traj.csv").exists()

    @pytest.mark.parametrize("scenario, numerics, message", [
        ("volterra", {"h": 1.0}, "step h = 1 too coarse"),
        ("compare", {"h": 1.0}, "step h = 1 too coarse"),
        ("discrete_bath", {"W": 1.0}, "window half-width 1 below 10 gamma"),
        ("compare", {"W": 1.0}, "window half-width 1 below 10 gamma"),
    ])
    def test_out_of_range_reference_numerics_is_2(self, tmp_path, capsys, scenario, numerics,
                                                  message):
        doc = {
            "scenario": scenario,
            "system": {"preset": "tls_sigma_minus"},
            "bath": {"kind": "lorentzian", "g": 1.0, "omega0": 0.0, "gamma": 0.2},
            "time": {"t0": 0.0, "t1": 1.0, "n_points": 3},
            "numerics": numerics,
            "output": "x.csv",
        }
        path = write_config(tmp_path, doc)
        assert main(["run", str(path), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: invalid numerics: " + message)
        assert err.count("\n") == 1
        assert not (tmp_path / "x.csv").exists()

    def test_oversized_oscillator_is_2(self, tmp_path, capsys):
        doc = base_doc()
        doc["system"] = {"preset": "oscillator", "d_S": 10**30}
        path = write_config(tmp_path, doc)
        assert main(["run", str(path), "--out", str(tmp_path)]) == 2
        assert "system.d_S must be <= 1024" in capsys.readouterr().err

    def test_jump_degeneracy_is_3(self, tmp_path, capsys, monkeypatch):
        def degenerate(*args, **kwargs):
            raise JumpDegeneracyError("all jump channels have zero or non-finite weight (total 0)")

        monkeypatch.setattr(cli, "ensemble_average", degenerate)
        doc = {
            "scenario": "trajectories",
            "system": {"preset": "tls_sigma_minus"},
            "bath": {"kind": "flat", "f2": 1.0},
            "time": {"t0": 0.0, "t1": 1.0, "n_points": 3},
            "trajectories": {"n_traj": 4, "seed": 1},
            "output": "traj.csv",
        }
        path = write_config(tmp_path, doc)
        assert main(["run", str(path), "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert err == "jump failure: all jump channels have zero or non-finite weight (total 0)\n"
        assert not (tmp_path / "traj.csv").exists()

    def test_closed_stdout_is_0(self, tmp_path, monkeypatch):
        sink = tmp_path / "stdout"
        fd = os.open(sink, os.O_WRONLY | os.O_CREAT)

        class ClosedPipe:
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

            def flush(self):
                pass

            def fileno(self):
                return fd

        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        path = write_config(tmp_path, base_doc())
        try:
            assert main(["run", str(path), "--out", str(tmp_path)]) == 0
            # what the flush at exit writes now goes to devnull, not the pipe
            os.write(fd, b"flushed at exit")
        finally:
            os.close(fd)
        assert sink.read_bytes() == b""
        _, rows = read_csv(tmp_path / "out.csv")
        assert len(rows) == 11


class TestStackedCore:
    """Every Lindblad scenario runs on embedding's stacked grid-step core."""

    MARKOVIAN = REPO / "configs" / "markovian_tls.json"

    @pytest.mark.parametrize("doc", [
        json.loads(MARKOVIAN.read_text()),
        base_doc(system={"preset": "oscillator", "d_S": 4, "initial_fock": 3},
                 time={"t0": 0.0, "t1": 5.0, "n_points": 101}),
    ], ids=["markovian_tls", "oscillator-fock3"])
    def test_markovian_matches_adaptive_evolve(self, tmp_path, doc):
        path = write_config(tmp_path, doc)
        cfg = load_scenario(path)
        with warnings.catch_warnings():
            # one level is not an ancilla whose top Fock level could fill
            warnings.simplefilter("error", FockTruncationWarning)
            assert main(["run", str(path), "--out", str(tmp_path), "--quiet"]) == 0
        _, rows = read_csv(tmp_path / cfg.output)
        states = evolve(cli._markovian_model(cfg), cli._initial_density(cfg), cfg.grid,
                        cfg.integrator)
        obs = cli._system_observable(cfg)
        adaptive = np.array([expectation(obs, st).real for st in states])
        assert np.max(np.abs(rows[:, 1] - adaptive)) <= 1e-10
        # a flat bath damps every quantum at rate f2
        decay = cfg.initial_fock * np.exp(-cfg.bath.f2 * rows[:, 0])
        assert np.max(np.abs(rows[:, 1] - decay)) <= 1e-6

    def test_markovian_never_calls_evolve(self, tmp_path, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("the markovian runner took the adaptive path")

        monkeypatch.setattr(dynamics, "evolve", forbidden)
        monkeypatch.setattr(cli, "evolve", forbidden, raising=False)
        monkeypatch.setattr(dynamics, "iter_instants", forbidden)
        assert main(["run", str(self.MARKOVIAN), "--out", str(tmp_path), "--quiet"]) == 0

    @pytest.mark.parametrize("doc", [
        base_doc(),
        base_doc(system={"preset": "oscillator", "d_S": 4, "initial_fock": 3}),
        base_doc(scenario="pseudomode", numerics={"d_A": 3},
                 bath={"kind": "lorentzian", "g": 1.0, "omega0": 5.0, "gamma": 0.2}),
        base_doc(scenario="pseudomode", numerics={"d_A": "auto"},
                 system={"preset": "oscillator", "d_S": 4, "initial_fock": 3},
                 bath={"kind": "lorentzian", "g": 1.0, "omega0": 5.0, "gamma": 0.2}),
    ], ids=["markovian-tls", "markovian-oscillator", "pseudomode-dA3", "pseudomode-auto"])
    def test_no_density_matrix_per_instant(self, tmp_path, monkeypatch, doc):
        built = []
        validate = DensityMatrix.__post_init__

        def counted(self):
            built.append(self.dim)
            validate(self)

        monkeypatch.setattr(DensityMatrix, "__post_init__", counted)
        counts = []
        for n_points in (11, 201):
            doc["time"] = {"t0": 0.0, "t1": 5.0, "n_points": n_points}
            path = write_config(tmp_path, doc)
            built.clear()
            assert main(["run", str(path), "--out", str(tmp_path), "--quiet"]) == 0
            counts.append(len(built))
        assert counts[0] == counts[1] <= 2

    def test_trace_breaking_propagator_is_3(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(embedding, "propagator",
                            lambda generator, *args, **kwargs: 1.01 * np.eye(len(generator)))
        assert main(["run", str(self.MARKOVIAN), "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("invariant failure: density matrix trace") and "trace" in err
        assert not (tmp_path / "markovian_tls.csv").exists()

    def test_expectations_match_the_per_state_trace(self):
        # one einsum over the stack against tr(A rho) state by state; only the
        # summation order differs
        cfg = parse_scenario(base_doc(system={"preset": "oscillator", "d_S": 4,
                                              "initial_fock": 3}))
        stack = embedding._reduced_curve(cli._markovian_model(cfg), cli._initial_density(cfg).mat,
                                         1, cfg.grid, cfg.integrator)
        obs = cli._system_observable(cfg)
        per_state = [expectation(obs, DensityMatrix(Operator(r))).real for r in stack]
        assert np.max(np.abs(cli._expectations(cfg, stack) - per_state)) <= 1e-14

    def test_core_returns_the_stack_of_the_public_wrapper(self):
        cfg = parse_scenario(base_doc(
            scenario="pseudomode", numerics={"d_A": 3},
            bath={"kind": "lorentzian", "g": 1.0, "omega0": 5.0, "gamma": 0.2}))
        spec = embedding.EmbeddingSpec(cfg.system, cfg.bath, 3)
        rho = cli._initial_density(cfg)
        grid = TimeGrid(0.0, 2.0, 21)
        stack = embedding._reduced_curve(*embedding._composite(spec, rho), 3, grid,
                                         cfg.integrator)
        states = embedding.simulate_lorentzian(spec, rho, grid, cfg.integrator)
        assert stack.shape == (21, 2, 2)
        assert np.array_equal(stack, np.stack([st.mat for st in states]))


@pytest.mark.parametrize("config", SHIPPED, ids=lambda p: p.stem)
def test_shipped_configs_run_quickly(config, tmp_path):
    start = time.monotonic()
    assert main(["run", str(config), "--out", str(tmp_path), "--quiet"]) == 0
    assert time.monotonic() - start < 60.0
    produced = list(tmp_path.glob("*.csv"))
    assert len(produced) == 1
