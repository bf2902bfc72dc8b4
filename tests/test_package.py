"""The package namespace: lazy public names, and what each entry point loads.

`pseudomode/__init__.py` resolves its public names on first access, so the
modules a fresh interpreter loads depend on what it uses. The footprint
tests run in a fresh interpreter, since this one has imported everything.
"""

import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pseudomode
from pseudomode import dynamics

REPO = Path(__file__).resolve().parent.parent
# the modules benchmark/tracing.py looks up after `import pseudomode.cli`
TRACED = ("cli", "config", "embedding", "dynamics", "integrators", "algebra", "oracles",
          "trajectories")


def _loaded_after(code: str) -> list[str]:
    """The names in sys.modules after a fresh interpreter runs code."""
    code += "\nimport sys, json\nprint(json.dumps(sorted(sys.modules)))\n"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    return json.loads(out.stdout.splitlines()[-1])


def _parse(config: str) -> str:
    path = REPO / "configs" / config
    return f"from pseudomode import load_scenario\nload_scenario({str(path)!r})"


class TestImportFootprint:
    def test_parsing_an_ensemble_config_loads_no_engine(self):
        loaded = _loaded_after(_parse("trajectories_embedded.json"))
        assert "pseudomode.config" in loaded
        for name in ("pseudomode.trajectories", "pseudomode.oracles", "pseudomode.cli",
                     "multiprocessing"):
            assert name not in loaded

    def test_parsing_a_reference_config_loads_only_the_references(self):
        loaded = _loaded_after(_parse("volterra_strong_coupling.json"))
        assert "pseudomode.oracles" in loaded
        assert "pseudomode.trajectories" not in loaded
        assert "multiprocessing" not in loaded

    def test_the_cli_loads_every_traced_module(self):
        loaded = _loaded_after("import pseudomode.cli")
        assert {f"pseudomode.{name}" for name in TRACED} <= set(loaded)


class TestNamespace:
    def test_every_public_name_is_the_defining_modules_object(self):
        assert len(pseudomode.__all__) == len(set(pseudomode.__all__)) == 54
        for name in pseudomode.__all__:
            module = importlib.import_module(f"pseudomode.{pseudomode._ORIGIN[name]}")
            obj = getattr(pseudomode, name)
            assert obj is getattr(module, name), name
            if isinstance(obj, type) or inspect.isfunction(obj):
                assert obj.__module__ == module.__name__, name

    def test_dir_lists_the_public_names_and_submodules(self):
        listed = dir(pseudomode)
        assert set(pseudomode.__all__) <= set(listed)
        assert {*TRACED, "__version__"} <= set(listed)

    def test_submodule_after_a_bare_import(self):
        loaded = _loaded_after("import pseudomode\nassert pseudomode.dynamics.evolve")
        assert "pseudomode.dynamics" in loaded
        assert "pseudomode.trajectories" not in loaded
        assert pseudomode.dynamics is dynamics

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no attribute 'evolver'"):
            pseudomode.evolver  # noqa: B018
        assert not hasattr(pseudomode, "_volterra_substeps")
        with pytest.raises(ImportError):
            from pseudomode import evolver  # noqa: F401
