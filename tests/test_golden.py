"""Every shipped config's curve against its golden CSV (tests/golden/).

scripts/regenerate_golden.py writes the golden files and lists the cases.
The time column must match exactly and every other column to 1e-12
absolute: BLAS builds round differently, so bytes are checked only locally
(the script's --bytes).
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

REPO = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("regenerate_golden",
                                               REPO / "scripts" / "regenerate_golden.py")
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)

TOLERANCE = 1e-12


def _read(path: Path):
    header = path.read_text().split("\n", 1)[0]
    return header, np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


@pytest.mark.parametrize("name, args", golden.CASES, ids=[name for name, _ in golden.CASES])
def test_curve_matches_golden(name, args, tmp_path, monkeypatch):
    monkeypatch.setenv("PSEUDOMODE_NUM_THREADS", "1")  # ensembles do not depend on it
    golden.run_case(args, tmp_path / name)
    header, fresh = _read(tmp_path / name)
    golden_header, expected = _read(golden.GOLDEN / name)
    assert header == golden_header
    assert fresh.shape == expected.shape
    assert np.array_equal(fresh[:, 0], expected[:, 0])
    deviation = np.max(np.abs(fresh[:, 1:] - expected[:, 1:]))
    print(f"{name}: largest deviation {deviation:.3g}")
    assert deviation <= TOLERANCE, f"{name}: largest deviation {deviation:.3g} > {TOLERANCE}"


def _module_run(config: Path, out: Path) -> subprocess.CompletedProcess:
    """`python -m pseudomode run config --out out` in a fresh interpreter, from the package in
    src/."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "pseudomode", "run", str(config), "--out",
                           str(out)], env=env, cwd=out, capture_output=True, text=True)


def test_module_entry_point_writes_the_golden_curve(tmp_path):
    done = _module_run(REPO / "configs" / "markovian_tls.json", tmp_path)
    assert done.returncode == 0, done.stderr
    header, fresh = _read(tmp_path / "markovian_tls.csv")
    golden_header, expected = _read(golden.GOLDEN / "markovian_tls.csv")
    assert header == golden_header
    assert fresh.shape == expected.shape
    assert np.array_equal(fresh[:, 0], expected[:, 0])
    assert np.max(np.abs(fresh[:, 1:] - expected[:, 1:])) <= TOLERANCE


def test_module_entry_point_rejects_an_unknown_key(tmp_path):
    doc = json.loads((REPO / "configs" / "markovian_tls.json").read_text())
    doc["time"]["n_point"] = 11
    config = tmp_path / "typo.json"
    config.write_text(json.dumps(doc))
    done = _module_run(config, tmp_path)
    assert done.returncode == 2
    assert done.stderr.startswith("config error: ") and done.stderr.count("\n") == 1
    assert "n_point" in done.stderr
    assert not (tmp_path / doc["output"]).exists()
