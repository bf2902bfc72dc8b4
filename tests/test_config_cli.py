import errno
import json
import os
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from pseudomode import (
    BathRecurrenceWarning,
    ConfigError,
    DensityMatrix,
    FockTruncationWarning,
    IntegratorConfig,
    JumpDegeneracyError,
    Operator,
    TimeGrid,
    choose_truncation,
    cli,
    dynamics,
    embedding,
    evolve,
    expectation,
    load_scenario,
    parse_scenario,
)
from pseudomode.cli import main
from pseudomode.config import (
    MAX_BATH_MODES,
    MAX_COMPOSITE_DIM,
    MAX_OUTPUT_POINTS,
    MAX_STEPS_PER_INTERVAL,
    MAX_TRAJECTORY_INSTANTS,
    MAX_VOLTERRA_STEPS,
    SCENARIO_KINDS,
)

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

    LORENTZIAN = {"kind": "lorentzian", "g": 1.0, "gamma": 0.5}
    REJECTED = {
        "non-positive": (base_doc(numerics={"max_step": -1.0}),
                         "numerics.max_step must be positive, got -1.0"),
        "system-not-object": (base_doc(system=[]), "system block must be an object"),
        "bath-not-object": (base_doc(bath="flat"), "bath block must be an object"),
        "unknown-preset": (base_doc(system={"preset": "qubit"}),
                           "unknown system preset 'qubit'"),
        "tls-d_S": (base_doc(system={"preset": "tls_sigma_minus", "d_S": 3}),
                    "preset tls_sigma_minus is two-level; got d_S = 3"),
        "oscillator-without-d_S": (base_doc(system={"preset": "oscillator"}),
                                   "system.d_S is required for the oscillator preset"),
        "initial_fock": (base_doc(system={"preset": "tls_sigma_minus", "initial_fock": 2}),
                         r"system.initial_fock 2 outside 0\.\.1"),
        "bath-kind": (base_doc(bath={"kind": "ohmic"}),
                      "bath.kind must be 'flat' or 'lorentzian', got 'ohmic'"),
        "rel_tol": (base_doc(numerics={"rel_tol": 1.0}),
                    r"invalid numerics: rel_tol must lie in \(0, 1\), got 1.0"),
        "abs_tol": (base_doc(numerics={"abs_tol": 2.0}),
                    r"invalid numerics: abs_tol must lie in \(0, 1\), got 2.0"),
        "d_A": (base_doc(scenario="pseudomode", bath=LORENTZIAN, numerics={"d_A": 1}),
                "numerics.d_A must be an integer >= 2 or 'auto', got 1"),
        "d_A-bool": (base_doc(scenario="pseudomode", bath=LORENTZIAN, numerics={"d_A": True}),
                     "numerics.d_A must be an integer >= 2 or 'auto', got True"),
        "reference-t0": (base_doc(scenario="volterra", bath=LORENTZIAN,
                                  time={"t0": 1.0, "t1": 2.0, "n_points": 11}),
                         "scenario 'volterra' requires time.t0 = 0"),
        "no-trajectories-block": (base_doc(scenario="trajectories"),
                                  "scenario 'trajectories' requires a trajectories block"),
    }

    @pytest.mark.parametrize("case", REJECTED)
    def test_rejected_documents_name_their_fault(self, case):
        doc, message = self.REJECTED[case]
        with pytest.raises(ConfigError, match=f"^{message}"):
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

    def test_integrator_defaults_come_from_integrator_config(self):
        assert parse_scenario(base_doc()).integrator == IntegratorConfig()
        cfg = parse_scenario(base_doc(numerics={"rel_tol": 1e-6, "max_step": 0.5}))
        assert cfg.integrator == IntegratorConfig(rel_tol=1e-6, max_step=0.5)

    @pytest.mark.parametrize("scenario, h, half_width", [
        ("volterra", 0.01, None), ("discrete_bath", None, 4.0), ("compare", 0.01, 4.0),
    ])
    def test_reference_steps_resolved_at_parse_time(self, scenario, h, half_width):
        # g = 1 and gamma = 0.2: the step defaults to 0.01 / max(g, gamma), the window to 20 gamma
        doc = base_doc(scenario=scenario,
                       bath={"kind": "lorentzian", "g": 1.0, "omega0": 5.0, "gamma": 0.2})
        cfg = parse_scenario(doc)
        assert cfg.h == h
        assert cfg.half_width == pytest.approx(half_width)

    @pytest.mark.parametrize("scenario", ["markovian", "pseudomode", "trajectories"])
    def test_reference_steps_unset_where_no_reference_runs(self, scenario):
        # h and W are accepted and type-checked, but no run of these scenarios reads them,
        # so neither is filled in, not even from values that a reference run would reject
        doc = base_doc(scenario=scenario, numerics={"d_A": 3, "h": 0.5, "W": 0.1},
                       bath={"kind": "lorentzian", "g": 1.0, "omega0": 0.0, "gamma": 1.0})
        if scenario == "trajectories":
            doc["trajectories"] = {"n_traj": 4, "seed": 7}
        cfg = parse_scenario(doc)
        assert cfg.h is None and cfg.half_width is None
        for key in ("h", "W"):
            with pytest.raises(ConfigError, match=f"numerics.{key}"):
                parse_scenario({**doc, "numerics": {key: -1.0}})

    def test_volterra_work_bound_is_inclusive(self):
        # one output interval of 2**20 steps of h = 2**-10 is allowed, one more step is not
        h = 2.0 ** -10
        doc = base_doc(scenario="volterra", numerics={"h": h},
                       bath={"kind": "lorentzian", "g": 1.0, "omega0": 0.0, "gamma": 0.2})
        doc["time"] = {"t0": 0.0, "t1": MAX_VOLTERRA_STEPS * h, "n_points": 2}
        assert parse_scenario(doc).h == h
        doc["time"]["t1"] += h
        with pytest.raises(ConfigError, match="MAX_VOLTERRA_STEPS"):
            parse_scenario(doc)
        doc["scenario"] = "discrete_bath"  # builds no Volterra system
        assert parse_scenario(doc).h is None

    @pytest.mark.parametrize("scenario", ["markovian", "trajectories"])
    def test_steps_per_interval_bound_is_inclusive(self, scenario):
        doc = base_doc(scenario=scenario, numerics={"max_step": 0.5})
        if scenario == "trajectories":
            doc["trajectories"] = {"n_traj": 1, "seed": 0}
        doc["time"] = {"t0": 0.0, "t1": MAX_STEPS_PER_INTERVAL * 0.5, "n_points": 2}
        parse_scenario(doc)
        doc["time"]["t1"] += 1.0
        with pytest.raises(ConfigError, match="MAX_STEPS_PER_INTERVAL"):
            parse_scenario(doc)

    def test_output_points_bound_is_inclusive(self):
        doc = base_doc()
        doc["time"] = {"t0": 0.0, "t1": 1.0, "n_points": MAX_OUTPUT_POINTS}
        assert parse_scenario(doc).grid.n_points == MAX_OUTPUT_POINTS
        doc["time"]["n_points"] += 1
        with pytest.raises(ConfigError, match="MAX_OUTPUT_POINTS"):
            parse_scenario(doc)

    def test_trajectory_instants_bound_is_inclusive(self):
        doc = base_doc(scenario="trajectories")
        doc["trajectories"] = {"n_traj": MAX_TRAJECTORY_INSTANTS // 1024, "seed": 0}
        doc["time"] = {"t0": 0.0, "t1": 1.0, "n_points": 1024}
        assert parse_scenario(doc).n_traj * 1024 == MAX_TRAJECTORY_INSTANTS
        doc["trajectories"]["n_traj"] += 1
        with pytest.raises(ConfigError, match="MAX_TRAJECTORY_INSTANTS"):
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

    def test_large_markovian_oscillator(self, tmp_path):
        # d_S = 512 from Fock 511 at rate g^2 gamma / (gamma / 2)^2 = 4: the reachable states
        # and entries are found from the moves alone, with no dense 512 x 512 product per layer
        doc = base_doc()
        doc["system"] = {"preset": "oscillator", "d_S": 512, "initial_fock": 511}
        doc["bath"] = {"kind": "lorentzian", "g": 1.0, "omega0": 0.0, "gamma": 1.0}
        doc["time"] = {"t0": 0.0, "t1": 2.0, "n_points": 21}
        path = write_config(tmp_path, doc)
        assert main(["run", str(path), "--out", str(tmp_path), "--quiet"]) == 0
        header, rows = read_csv(tmp_path / "out.csv")
        assert header == ["t", "n_mean"]
        exact = 511.0 * np.exp(-4.0 * rows[:, 0])
        assert np.max(np.abs(rows[:, 1] / exact - 1.0)) <= 1e-10

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

    def test_csv_bytes(self, tmp_path):
        path = tmp_path / "table.csv"
        cli.write_csv(path, [("t", np.array([0.0, 0.1])),
                             ("x", np.array([-0.0, np.nan])),
                             ("y", np.array([1e-300, -np.inf])),
                             ("z", np.array([1 / 3, np.inf]))])
        assert path.read_bytes() == (
            b"t,x,y,z\n"
            b"0,-0,1e-300,0.33333333333333331\n"
            b"0.10000000000000001,nan,-inf,inf\n"
        )
        rng = np.random.default_rng(5)
        real = rng.standard_normal(201) * 10.0 ** rng.integers(-300, 300, 201)
        other = rng.standard_normal(201)
        cli.write_csv(path, [("a", real), ("b", other)])
        expected = "a,b\n" + "".join(
            ",".join(format(float(v), ".17g") for v in row) + "\n"
            for row in zip(real, other))
        assert path.read_bytes() == expected.encode("ascii")

    def test_csv_chunks_keep_the_row_bytes(self, tmp_path):
        path = tmp_path / "long.csv"
        n_rows = 2 * cli._CSV_CHUNK_ROWS + 3  # two full chunks and a ragged one
        t = np.linspace(0.0, 1.0, n_rows)
        x = np.random.default_rng(7).standard_normal(n_rows)
        cli.write_csv(path, [("t", t), ("x", x)])
        expected = "t,x\n" + "".join(f"{a:.17g},{b:.17g}\n" for a, b in zip(t, x))
        assert path.read_bytes() == expected.encode("ascii")

    def test_csv_memory_does_not_grow_with_the_rows(self, tmp_path):
        n_rows = 1 << 17
        columns = [("t", np.linspace(0.0, 1.0, n_rows)), ("x", np.full(n_rows, 1 / 3))]
        tracemalloc.start()
        try:
            cli.write_csv(tmp_path / "big.csv", columns)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one chunk of rows as floats, a tuple and a string; the whole file is 5 MiB
        assert peak < 2 << 20

    def test_auto_ancilla_trajectories_match_the_chosen_size(self, tmp_path):
        doc = {
            "scenario": "trajectories",
            "system": {"preset": "tls_sigma_minus"},
            "bath": {"kind": "lorentzian", "g": 1.0, "omega0": 5.0, "gamma": 0.5},
            "time": {"t0": 0.0, "t1": 4.0, "n_points": 21},
            "numerics": {"d_A": "auto"},
            "trajectories": {"n_traj": 100, "seed": 3},
            "output": "traj.csv",
        }
        cfg = parse_scenario(doc)
        d_a = choose_truncation(cfg.system, cfg.bath, DensityMatrix.fock(2, 1), cfg.grid,
                                cfg.integrator, cfg.truncation_tol)
        written = []
        for name, value in (("auto", "auto"), ("fixed", d_a)):
            doc["numerics"]["d_A"] = value
            path = write_config(tmp_path, doc, name=f"{name}.json")
            assert main(["run", str(path), "--out", str(tmp_path / name), "--quiet"]) == 0
            written.append((tmp_path / name / "traj.csv").read_bytes())
        assert written[0] == written[1]

    @pytest.mark.parametrize("doc", [
        base_doc(system={"preset": "tls_sigma_minus", "detuning": 0.5}),
        base_doc(system={"preset": "oscillator", "d_S": 4, "initial_fock": 3,
                         "detuning": 0.5}),
        base_doc(scenario="discrete_bath", numerics={"n_modes": 400}),
    ], ids=["markovian-tls", "markovian-oscillator", "discrete_bath"])
    def test_curves_do_not_depend_on_line_center(self, tmp_path, doc):
        # everything runs in the frame rotating at omega0: a huge line center
        # must not round the detunings away
        doc["time"] = {"t0": 0.0, "t1": 10.0, "n_points": 51}
        written = []
        for omega0 in (0.0, 1e16):
            doc["bath"] = {"kind": "lorentzian", "g": 1.0, "omega0": omega0, "gamma": 0.2}
            out = tmp_path / f"omega0_{omega0:g}"
            path = write_config(tmp_path, doc)
            assert main(["run", str(path), "--out", str(out), "--quiet"]) == 0
            written.append((out / "out.csv").read_bytes())
        assert written[0] == written[1]


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

    def test_config_that_is_not_utf8_is_2(self, tmp_path, capsys):
        path = tmp_path / "latin.json"
        path.write_bytes(b'\xff\xfe{"a":1}')
        assert main(["run", str(path), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: config {path} is not UTF-8")
        assert err.count("\n") == 1

    def test_config_that_nests_too_deeply_is_2(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000)
        assert main(["run", str(path), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"config error: config {path} nests too deeply\n"

    def test_output_without_file_name_bytes_is_2(self, tmp_path, capsys):
        doc = json.loads((REPO / "configs" / "markovian_tls.json").read_text())
        doc["output"] = "\ud800.csv"  # json.dumps writes the lone surrogate as \ud800
        path = write_config(tmp_path, doc)
        assert main(["run", str(path), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err == "config error: output '\\ud800.csv' cannot be encoded as a file name\n"
        assert list(tmp_path.iterdir()) == [path]

    def test_output_name_too_long_is_2(self, tmp_path, capsys, monkeypatch):
        # pathlib's is_dir re-raises ENAMETOOLONG; it must end before any compute
        def never(cfg):
            raise AssertionError("the scenario ran")

        monkeypatch.setitem(cli._RUNNERS, "markovian", never)
        doc = json.loads((REPO / "configs" / "markovian_tls.json").read_text())
        doc["output"] = "a" * 300 + ".csv"
        path = write_config(tmp_path, doc)
        assert main(["run", str(path), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err == (f"config error: output {tmp_path / doc['output']} cannot be a file: "
                       f"{os.strerror(errno.ENAMETOOLONG)}\n")
        assert list(tmp_path.iterdir()) == [path]

    def test_seed_override_outside_trajectories_is_2(self, tmp_path):
        path = write_config(tmp_path, base_doc())
        assert main(["run", str(path), "--out", str(tmp_path), "--seed", "3"]) == 2

    @pytest.mark.parametrize("seed", [-1, (1 << 64) + 7])
    def test_seed_outside_64_bits_is_2(self, tmp_path, capsys, seed):
        # the seed is one 64-bit word of the Philox key, so 2^64 + 7 would alias 7
        doc = base_doc(scenario="trajectories", trajectories={"n_traj": 4, "seed": 1})
        path = write_config(tmp_path, doc)
        assert main(["run", str(path), "--out", str(tmp_path), "--seed", str(seed)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: --seed") and err.count("\n") == 1
        doc["trajectories"]["seed"] = seed
        path = write_config(tmp_path, doc)
        assert main(["run", str(path), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: trajectories.seed") and err.count("\n") == 1
        assert not (tmp_path / "out.csv").exists()

    @staticmethod
    def no_run(monkeypatch):
        def forbidden(cfg):
            raise AssertionError("the scenario ran before its output path was checked")

        monkeypatch.setitem(cli._RUNNERS, "markovian", forbidden)

    def test_out_that_is_a_file_is_2(self, tmp_path, capsys, monkeypatch):
        self.no_run(monkeypatch)
        out = tmp_path / "taken"
        out.write_text("keep\n")
        config = REPO / "configs" / "markovian_tls.json"
        assert main(["run", str(config), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: --out {out} cannot be a directory")
        assert err.count("\n") == 1
        assert out.read_text() == "keep\n"

    def test_output_that_is_a_directory_is_2(self, tmp_path, capsys, monkeypatch):
        self.no_run(monkeypatch)
        (tmp_path / "markovian_tls.csv").mkdir()
        config = REPO / "configs" / "markovian_tls.json"
        assert main(["run", str(config), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err == f"config error: output {tmp_path / 'markovian_tls.csv'} is a directory\n"
        assert not any((tmp_path / "markovian_tls.csv").iterdir())

    def test_failed_csv_write_is_2(self, tmp_path, capsys, monkeypatch):
        # the disk fills once the header is written: the partial CSV is removed
        def full_disk(path, *args, **kwargs):
            f = open(path, *args, **kwargs)

            def no_space(lines):
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

            f.writelines = no_space
            return f

        monkeypatch.setattr(cli, "open", full_disk, raising=False)
        path = write_config(tmp_path, base_doc())
        assert main(["run", str(path), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        out = tmp_path / "out.csv"
        assert err == f"config error: cannot write {out}: {os.strerror(errno.ENOSPC)}\n"
        assert not out.exists()

    def test_largest_seed_runs(self, tmp_path):
        doc = base_doc(scenario="trajectories", trajectories={"n_traj": 4, "seed": 1})
        path = write_config(tmp_path, doc)
        seed = str((1 << 64) - 1)
        assert main(["run", str(path), "--out", str(tmp_path), "--seed", seed, "--quiet"]) == 0
        assert (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("scenario, g, gamma, code", [
        ("markovian", 1.0, 1e-200, 3),  # rate 4e200: the integrator's step underflows
        ("markovian", 1e-200, 1e-300, 0),  # rate 4e-100
        ("markovian", 1e200, 1.0, 2),  # rate 4e400
        ("discrete_bath", 1e200, 1.0, 2),
    ], ids=["tiny-gamma", "tiny-g-and-gamma", "huge-g", "huge-g-discrete"])
    def test_extreme_line_shape_exits_without_traceback(self, tmp_path, capsys, scenario, g,
                                                         gamma, code):
        doc = base_doc(scenario=scenario,
                       bath={"kind": "lorentzian", "g": g, "omega0": 0.0, "gamma": gamma})
        path = write_config(tmp_path, doc)
        assert main(["run", str(path), "--out", str(tmp_path), "--quiet"]) == code
        err = capsys.readouterr().err
        if code == 0:
            assert err == ""
            assert read_csv(tmp_path / "out.csv")[1][-1, 1] == 1.0
        else:
            assert err.count("\n") == 1
        if code == 2:
            assert err.startswith("config error:") and "Lorentzian(g=1e+200" in err
            assert "past the float range" in err

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

    def test_rejected_document_is_2(self, tmp_path, capsys):
        path = write_config(tmp_path, TestParsing.REJECTED["no-trajectories-block"][0])
        assert main(["run", str(path), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err == "config error: scenario 'trajectories' requires a trajectories block\n"
        assert not (tmp_path / "out.csv").exists()

    def test_ladder_past_the_composite_bound_is_4(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(embedding, "MAX_COMPOSITE_DIM", 64)
        doc = base_doc(scenario="pseudomode", system={"preset": "oscillator", "d_S": 4,
                                                      "initial_fock": 3},
                       bath={"kind": "lorentzian", "g": 1.0, "gamma": 0.2},
                       time={"t0": 0.0, "t1": 1.0, "n_points": 3},
                       numerics={"d_A": "auto", "truncation_tol": 1e-14})
        path = write_config(tmp_path, doc)
        assert main(["run", str(path), "--out", str(tmp_path)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("truncation failure: ") and "MAX_COMPOSITE_DIM = 64" in err
        assert err.count("\n") == 1
        assert not (tmp_path / "out.csv").exists()

    def test_reused_rung_past_the_composite_bound_is_4(self, tmp_path, capsys, monkeypatch):
        # d_A = 4 is final for Fock 3, so d_A = 8 is reused; d_A = 16 is past the bound
        monkeypatch.setattr(embedding, "MAX_COMPOSITE_DIM", 32)
        built = []
        composite = embedding._composite

        def recorded(spec, rho_s0):
            built.append(spec.d_A)
            return composite(spec, rho_s0)

        monkeypatch.setattr(embedding, "_composite", recorded)
        doc = base_doc(scenario="pseudomode", system={"preset": "oscillator", "d_S": 4,
                                                      "initial_fock": 3},
                       bath={"kind": "lorentzian", "g": 1.0, "gamma": 0.2},
                       time={"t0": 0.0, "t1": 1.0, "n_points": 3},
                       numerics={"d_A": "auto", "truncation_tol": 1e-14})
        path = write_config(tmp_path, doc)
        assert main(["run", str(path), "--out", str(tmp_path)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("truncation failure: ")
        assert "4 x 16 is above MAX_COMPOSITE_DIM = 32" in err
        assert err.count("\n") == 1
        assert built == [2, 4]
        assert not (tmp_path / "out.csv").exists()

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

    @pytest.mark.parametrize("config, block, key, value, bound", [
        ("volterra_strong_coupling", "numerics", "h", 1e-300, "MAX_VOLTERRA_STEPS"),
        ("volterra_strong_coupling", "time", "t1", 1e9, "MAX_VOLTERRA_STEPS"),
        ("volterra_strong_coupling", "bath", "gamma", 1e10, "MAX_VOLTERRA_STEPS"),
        ("markovian_tls", "time", "t1", 1e300, "MAX_STEPS_PER_INTERVAL"),
        ("markovian_tls", "time", "n_points", 10**12, "MAX_OUTPUT_POINTS"),
        ("trajectories_embedded", "trajectories", "n_traj", 10**9, "MAX_TRAJECTORY_INSTANTS"),
        ("pseudomode_strong_coupling", "numerics", "d_A", 10**6, "MAX_COMPOSITE_DIM"),
        ("trajectories_embedded", "numerics", "d_A", 10**6, "MAX_COMPOSITE_DIM"),
    ], ids=["volterra-h", "volterra-t1", "volterra-gamma", "markovian-t1", "markovian-n_points",
            "trajectories-n_traj", "pseudomode-d_A", "trajectories-d_A"])
    def test_unbounded_work_is_2(self, tmp_path, capsys, config, block, key, value, bound):
        # each of these ended in a traceback or ran without end before it was bounded
        doc = json.loads((REPO / "configs" / f"{config}.json").read_text())
        doc.setdefault(block, {})[key] = value
        path = write_config(tmp_path, doc)
        assert main(["run", str(path), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert bound in err
        assert err.count("\n") == 1
        assert not (tmp_path / doc["output"]).exists()

    def test_composite_bound_admits_its_own_value(self):
        doc = base_doc(scenario="pseudomode",
                       bath={"kind": "lorentzian", "g": 1.0, "omega0": 0.0, "gamma": 1.0})
        doc["system"] = {"preset": "oscillator", "d_S": 1024}
        doc["numerics"] = {"d_A": MAX_COMPOSITE_DIM // 1024}
        assert parse_scenario(doc).d_A == MAX_COMPOSITE_DIM // 1024
        doc["numerics"]["d_A"] += 1
        with pytest.raises(ConfigError, match="MAX_COMPOSITE_DIM"):
            parse_scenario(doc)

    @pytest.mark.parametrize("scenario", ["markovian", "trajectories"])
    def test_runs_without_ancilla_resolve_d_A_to_1(self, tmp_path, scenario):
        # the markovian scenario (here with a Lorentzian bath) and a flat bath build no
        # composite, so a d_A with d_S x d_A past MAX_COMPOSITE_DIM is not read
        doc = base_doc(scenario=scenario, numerics={"d_A": 8})
        doc["system"] = {"preset": "oscillator", "d_S": 1024, "initial_fock": 3}
        doc["time"] = {"t0": 0.0, "t1": 1.0, "n_points": 3}
        if scenario == "markovian":
            doc["bath"] = {"kind": "lorentzian", "g": 1.0, "omega0": 0.0, "gamma": 1.0}
        else:
            doc["trajectories"] = {"n_traj": 2, "seed": 7}
        assert parse_scenario(doc).d_A == 1
        if scenario == "trajectories":
            # the ensemble's dense d_S x d_S no-jump propagator takes minutes at d_S = 1024,
            # so it runs at d_S = 4 with d_S x d_A just as far past the bound
            doc["system"]["d_S"], doc["numerics"]["d_A"] = 4, 2048
            assert parse_scenario(doc).d_A == 1
        path = write_config(tmp_path, doc)
        assert main(["run", str(path), "--out", str(tmp_path), "--quiet"]) == 0
        assert (tmp_path / doc["output"]).is_file()

    def test_reference_runs_only_type_check_d_A(self):
        doc = base_doc(scenario="volterra", numerics={"d_A": MAX_COMPOSITE_DIM},
                       bath={"kind": "lorentzian", "g": 1.0, "omega0": 0.0, "gamma": 1.0})
        assert parse_scenario(doc).d_A == MAX_COMPOSITE_DIM
        doc["numerics"]["d_A"] = 1
        with pytest.raises(ConfigError, match="numerics.d_A"):
            parse_scenario(doc)

    def test_oversized_oscillator_is_2(self, tmp_path, capsys):
        doc = base_doc()
        doc["system"] = {"preset": "oscillator", "d_S": 10**30}
        path = write_config(tmp_path, doc)
        assert main(["run", str(path), "--out", str(tmp_path)]) == 2
        assert "system.d_S must be <= 1024" in capsys.readouterr().err

    def test_non_finite_hamiltonian_is_2(self, tmp_path, capsys):
        # every number is finite, but the detuning times Fock index 2 overflows
        doc = {
            "scenario": "pseudomode",
            "system": {"preset": "oscillator", "d_S": 4, "detuning": 1e308, "initial_fock": 3},
            "bath": {"kind": "lorentzian", "g": 1.0, "omega0": 5.0, "gamma": 0.2},
            "time": {"t0": 0.0, "t1": 1.0, "n_points": 3},
            "numerics": {"d_A": "auto"},
            "output": "x.csv",
        }
        path = write_config(tmp_path, doc)
        assert main(["run", str(path), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: invalid system: H_S must have finite entries")
        assert err.count("\n") == 1
        assert not (tmp_path / "x.csv").exists()

    def test_too_many_bath_modes_is_2(self, tmp_path, capsys):
        doc = {
            "scenario": "discrete_bath",
            "system": {"preset": "tls_sigma_minus"},
            "bath": {"kind": "lorentzian", "g": 1.0, "omega0": 0.0, "gamma": 0.2},
            "time": {"t0": 0.0, "t1": 1.0, "n_points": 3},
            "numerics": {"n_modes": MAX_BATH_MODES + 1},
            "output": "x.csv",
        }
        path = write_config(tmp_path, doc)
        assert main(["run", str(path), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: numerics.n_modes must be <= {MAX_BATH_MODES}")
        doc["numerics"]["n_modes"] = MAX_BATH_MODES
        assert parse_scenario(doc).n_modes == MAX_BATH_MODES

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


class TestOneParser:
    """main builds its argparse parser once per process; no call may leak into the next."""

    def test_seed_override_does_not_outlive_its_call(self, tmp_path):
        doc = base_doc(scenario="trajectories", trajectories={"n_traj": 20, "seed": 3})
        path = write_config(tmp_path, doc)
        outputs = []
        for name, extra in (("override", ["--seed", "5"]), ("own", []), ("fresh", None)):
            out = tmp_path / name
            if extra is None:  # a parser built anew, as before main cached it
                cli._parser.cache_clear()
                extra = []
            assert main(["run", str(path), "--out", str(out), "--quiet", *extra]) == 0
            outputs.append((out / "out.csv").read_bytes())
        assert outputs[1] == outputs[2]
        assert outputs[0] != outputs[1]

    def test_bad_arguments_then_a_good_call(self, tmp_path, capsys):
        path = write_config(tmp_path, base_doc())
        with pytest.raises(SystemExit) as exc:
            main(["run", str(path), "--seed", "five"])
        assert exc.value.code == 2
        assert main(["run", str(path), "--out", str(tmp_path), "--quiet"]) == 0
        assert (tmp_path / "out.csv").exists()

    def test_shipped_two_level_configs_repeat_their_bytes(self, tmp_path):
        names = ("markovian_tls", "pseudomode_strong_coupling", "volterra_strong_coupling",
                 "discrete_bath_strong_coupling", "compare_strong_coupling")
        for name in names:
            config = REPO / "configs" / f"{name}.json"
            output = json.loads(config.read_text())["output"]
            written = []
            for run in ("first", "second"):
                out = tmp_path / name / run
                assert main(["run", str(config), "--out", str(out), "--quiet"]) == 0
                written.append((out / output).read_bytes())
            assert written[0] == written[1], name


def test_discrete_bath_run_loads_no_scipy(tmp_path):
    # scipy is not a dependency; a fresh interpreter shows whether anything imports it
    path = write_config(tmp_path, json.loads((REPO / "configs" / "discrete_bath_strong_coupling.json")
                                             .read_text()))
    code = (
        "import sys\n"
        "from pseudomode.cli import main\n"
        f"assert main(['run', {str(path)!r}, '--out', {str(tmp_path)!r}, '--quiet']) == 0\n"
        "print(sorted(name for name in sys.modules if name.split('.')[0] == 'scipy'))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "[]"


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
        # the runner's column is one einsum over the stack, against tr(A rho) state
        # by state; only the summation order differs
        cfg = parse_scenario(base_doc(system={"preset": "oscillator", "d_S": 4,
                                              "initial_fock": 3}))
        stack = embedding._reduced_curve(cli._markovian_model(cfg), cli._initial_density(cfg).mat,
                                         1, cfg.grid, cfg.integrator)
        obs = cli._system_observable(cfg)
        per_state = [expectation(obs, DensityMatrix(Operator(r))).real for r in stack]
        [(_, column)] = cli._lindblad(cfg)
        assert np.max(np.abs(column - per_state)) <= 1e-14

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
