"""Every shipped config's curve against its golden CSV (tests/golden/).

scripts/regenerate_golden.py writes the golden files and lists the cases.
The time column must match exactly and every other column to 1e-12
absolute: BLAS builds round differently, so bytes are checked only locally
(the script's --bytes).
"""

import importlib.util
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
