"""Set-up probe: a fresh interpreter imports the package and parses configs.

Usage: python3 benchmark/probe.py CONFIG [CONFIG ...]

run.py times this whole process, interpreter start-up included, as setup_s.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from pseudomode import load_scenario  # noqa: E402

for config in sys.argv[1:]:
    load_scenario(config)
