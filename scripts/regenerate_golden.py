#!/usr/bin/env python3
"""Regenerate the golden curves of tests/golden/, or check them byte for byte.

Each golden file is the CSV that `pseudomode run` writes for one shipped
config: every configs/*.json at its own seed, and
configs/trajectories_embedded.json at --seed 11 as well.
tests/test_golden.py runs the same cases and compares them with these files
to a tolerance. BLAS builds round differently, so bytes are checked only
locally, with --bytes: it regenerates into a temporary directory, lists
every file that differs and exits 1 if any does.

Usage: PYTHONPATH=src python scripts/regenerate_golden.py [--bytes]
"""

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

from pseudomode.cli import main as cli_main

REPO = Path(__file__).resolve().parents[1]
GOLDEN = REPO / "tests" / "golden"
SHIPPED = sorted((REPO / "configs").glob("*.json"))
# (golden file name, `pseudomode run` arguments) of every golden curve
CASES = [(json.loads(config.read_text())["output"], [str(config)]) for config in SHIPPED] + [
    ("trajectories_embedded_seed11.csv",
     [str(REPO / "configs" / "trajectories_embedded.json"), "--seed", "11"]),
]


def run_case(args, out: Path) -> None:
    """Write the CSV of one case's `pseudomode run` arguments to the file out."""
    with tempfile.TemporaryDirectory() as tmp:
        code = cli_main(["run", *args, "--out", tmp, "--quiet"])
        if code:
            raise RuntimeError(f"pseudomode run {' '.join(args)} exited {code}")
        (csv,) = Path(tmp).glob("*.csv")
        shutil.move(str(csv), str(out))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--bytes", action="store_true",
                        help="compare fresh CSVs with the golden files bytewise; write nothing")
    args = parser.parse_args()
    if not args.bytes:
        GOLDEN.mkdir(exist_ok=True)
        for name, case in CASES:
            run_case(case, GOLDEN / name)
            print(f"wrote {GOLDEN / name}")
        return 0
    differ = []
    with tempfile.TemporaryDirectory() as fresh:
        for name, case in CASES:
            run_case(case, Path(fresh) / name)
            if (Path(fresh) / name).read_bytes() != (GOLDEN / name).read_bytes():
                differ.append(name)
    for name in differ:
        print(f"differs: {name}")
    print(f"{len(CASES) - len(differ)} of {len(CASES)} golden CSVs byte-identical")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
