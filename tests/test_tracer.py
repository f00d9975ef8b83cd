"""The benchmark tracer (``perfbench/tracer.py``) binds library functions and
methods by name and reads some arguments by position; a rename or a
reordered signature must fail here rather than break traced runs."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

import slns
from slns.solver import SolverConfig, StochasticSolver

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture
def tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bindings_resolve(tracer_module):
    for module, attr in tracer_module.FUNCTIONS:
        assert callable(getattr(importlib.import_module(module), attr)), (module, attr)
    for module, cls, attr in tracer_module.METHODS:
        assert attr in vars(getattr(importlib.import_module(module), cls)), (module, cls, attr)


def test_positional_arguments_it_reads():
    # the tracer reads FieldInterpolator(grid, values) and .at(points) by
    # position, and takes a fourth positional argument as the spline order,
    # so none may sit there; it counts the xi points invert_core evaluates
    init = list(inspect.signature(slns.FieldInterpolator.__init__).parameters.values())
    assert [p.name for p in init[:3]] == ["self", "grid", "values"]
    assert all(p.kind is p.KEYWORD_ONLY for p in init[3:])
    assert list(inspect.signature(slns.FieldInterpolator.at).parameters) == ["self", "points"]
    assert list(inspect.signature(slns.invert_core).parameters)[:2] == ["grid", "xi"]


def test_install_trace_uninstall(tracer_module):
    solver = StochasticSolver(SolverConfig(dim=2, n=16, realizations=4, seed=1))
    burgers = StochasticSolver(
        SolverConfig(
            equation="burgers",
            dim=1,
            n=64,
            realizations=32,
            nu=0.1,
            dt=1e-3,
            initial="sine_mode",
            initial_params={"mode": 1, "amplitude": 1.0},
            seed=1,
        )
    )
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        assert tracer_module.installed_wrappers()
        tracer.begin_step(0)
        solver.step()
        tracer.end_step(failed=False)
        tracer.begin_step(1)
        burgers.step()
        tracer.end_step(failed=False)
    finally:
        tracer.uninstall()
    assert tracer_module.installed_wrappers() == []
    counts = tracer.counts[0]
    assert counts["flowmap.invert_core_calls"] >= 1
    assert counts["flowmap.invert_interp_points"] >= counts["flowmap.invert_core_calls"] * 16**2
    assert counts["interp.at_points"] > counts["flowmap.invert_interp_points"]
    assert counts["interp.prefilter_calls"] >= 1
    # a shared step builds one characteristic function for all its Picard passes
    assert tracer.counts[1]["spectral.chi_calls"] == 1
    assert not tracer.errors
