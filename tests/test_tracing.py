"""The benchmark's span tracer must find every package function it wraps.

`benchmark/run.py --trace 1` installs `benchmark/tracing.py`'s wrappers by
name, so a function removed or renamed in the package breaks the traced
benchmark run; this test catches that in the ordinary suite.
"""

import importlib.util
from pathlib import Path

import pseudomode
import pseudomode.cli  # noqa: F401  (the tracer wraps the modules the CLI imports)
from pseudomode import dynamics, integrators

TRACING = Path(__file__).resolve().parents[1] / "benchmark" / "tracing.py"


def _tracing_module():
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls():
    evolve, step = dynamics.evolve, integrators.Dopri5.__dict__["step"]
    tracer = _tracing_module().Tracer()
    tracer.install()
    try:
        assert dynamics.evolve is not evolve
        assert integrators.Dopri5.__dict__["step"] is not step
    finally:
        tracer.uninstall()
    assert dynamics.evolve is evolve
    assert integrators.Dopri5.__dict__["step"] is step


def test_package_names_keep_no_wrapper():
    # the package resolves pseudomode.evolve from dynamics on every access, so a
    # name first read under the tracer does not keep its wrapper
    vars(pseudomode).pop("evolve", None)
    tracer = _tracing_module().Tracer()
    tracer.install()
    try:
        assert pseudomode.evolve is dynamics.evolve
        assert pseudomode.evolve.__wrapped__ is not None
    finally:
        tracer.uninstall()
    assert pseudomode.evolve is dynamics.evolve
    assert not hasattr(pseudomode.evolve, "__wrapped__")
