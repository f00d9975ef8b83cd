"""The benchmark's workloads (``perfbench/workloads.py``) pass fields to
``SolverConfig`` and read the solver, its diagnostics, the oracle and the
example configs' gates by name; a deleted field or renamed reader must fail
here rather than break benchmark runs."""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

import slns.solver
from slns.solver import StochasticSolver, oracle_solution, relative_l2_error

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ROOT / "perfbench" / "workloads.py"


@pytest.fixture
def workloads_module(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    # its dataclass looks its module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_workload_runs_and_reads_its_oracle(workloads_module):
    assert workloads_module.WORKLOADS
    for name, workload in workloads_module.WORKLOADS.items():
        cfg = workload.config(seed=1)
        solver = StochasticSolver(cfg)
        for _ in range(2):
            solver.step()
        se = solver.diagnostics.column("probe_se_accum")[-1]
        error = relative_l2_error(solver.velocity_field(), oracle_solution(cfg, solver.t))
        values = [se, error, workload.gate(ROOT)]
        assert np.isfinite(values).all(), (name, values)


def test_workloads_pass_every_pinned_field(workloads_module):
    # a pinned field stays only while the benchmark passes it: once COMMON
    # drops a name, its field and its pin go too
    assert set(slns.solver.PINNED) <= set(workloads_module.COMMON)
