"""Self-test of the benchmark, from the repository root::

    python3 perfbench/selftest.py

Checks that

1. every metric named in ``BENCHMARK.json`` is reported, with its unit, for
   every workload, untraced and traced, and every run passes its checks;
2. the count metrics (``*_calls``, ``*_points``, ``solver.picard_passes``,
   ``interp.prefilter_repeat_share``) are identical across two traced runs
   at one seed;
3. the tracer wraps every call-site binding while installed, and leaves no
   wrapper behind once removed;
4. the oracle checks fail a broken program: a step that leaves the field
   unchanged, a step that moves it the wrong way, and (on Taylor-Green,
   whose change is all viscous decay) a viscosity ten times too large;
5. without the library (only ``BENCHMARK.json`` and this directory) the
   benchmark exits non-zero and prints no result.

Exits non-zero when a check fails.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
COUNT_METRICS = [
    m["name"]
    for m in SPEC["per_layer"]
    if m["name"].endswith(("_calls", "_points"))
    or m["name"] in ("solver.picard_passes", "interp.prefilter_repeat_share")
]

failures: list[str] = []


def check(ok: bool, message: str) -> None:
    print(("ok   " if ok else "FAIL ") + message, flush=True)
    if not ok:
        failures.append(message)


def bench(workload: str, trace: int, cwd: Path = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )
    return proc.returncode, proc.stdout.strip().splitlines()


def check_metrics() -> None:
    for w in SPEC["workloads"]:
        name = w["name"]
        traced = []
        for trace, wanted in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"]), (1, SPEC["per_layer"])):
            code, lines = bench(name, trace)
            result = json.loads(lines[-1]) if lines else {}
            check(code == 0 and result.get("correct") is True, f"{name} trace={trace} runs and passes its checks")
            metrics = result.get("metrics", {})
            expected = {m["name"]: m["unit"] for m in wanted}
            got = {k: v.get("unit") for k, v in metrics.items() if isinstance(v.get("value"), (int, float))}
            check(got == expected, f"{name} trace={trace} reports every named metric with its unit")
            if trace:
                traced.append(metrics)
        if len(traced) == 2:
            differ = [k for k in COUNT_METRICS if traced[0].get(k) != traced[1].get(k)]
            check(not differ, f"{name} count metrics repeat across two traced runs {differ or ''}")


def check_tracer() -> None:
    sys.path.insert(0, str(HERE))
    import run
    import tracer

    run.load_library()
    import slns.flowmap
    import slns.recovery
    import slns.solver

    originals = {
        (slns.solver, "weber_velocity"): slns.recovery.weber_velocity,
        (slns.solver, "probe_spread"): slns.recovery.probe_spread,
        (slns.recovery, "translate_batch"): slns.flowmap.translate_batch,
        (slns.flowmap.FlowEnsemble, "invert"): vars(slns.flowmap.FlowEnsemble)["invert"],
    }
    t = tracer.Tracer()
    t.install()
    try:
        wrapped = [hasattr(getattr(owner, key), "_perfbench_original") for owner, key in originals]
        check(all(wrapped), "tracer wraps call-site bindings and class methods")
    finally:
        t.uninstall()
    check(tracer.installed_wrappers() == [], "no wrapper is left installed after uninstall")
    restored = [vars(owner)[key] is fn for (owner, key), fn in originals.items()]
    check(all(restored), "uninstall restores the original objects")


def faulty_solver(base, change: float = 1.0, nu_factor: float = 1.0):
    """``base`` with every step's change of the velocity scaled by
    ``change`` and the viscosity multiplied by ``nu_factor``."""

    class Faulty(base):
        def __init__(self, config):
            super().__init__(dataclasses.replace(config, nu=nu_factor * config.nu))

        def step(self):
            before = self.u_values.copy()
            super().step()
            self.u_values = before + change * (self.u_values - before)

    return Faulty


def check_faults() -> None:
    sys.path.insert(0, str(HERE))
    import run
    from workloads import WORKLOADS

    lib = run.load_library()
    slns = lib[0]
    original = slns.StochasticSolver
    faults = {
        "frozen step": dict(change=0.0),
        "reversed step": dict(change=-1.0),
        "tenfold viscosity": dict(nu_factor=10.0),
    }
    cases = [
        ("burgers1d-shared", "frozen step", 4),
        ("burgers1d-shared", "reversed step", 4),
        ("tg2d-shared", "frozen step", 4),
        ("tg2d-shared", "tenfold viscosity", 4),
        ("tg2d-window", "frozen step", 2),
        ("tg2d-window", "tenfold viscosity", 2),
    ]
    for name, fault, seeds in cases:
        workload = WORKLOADS[name]
        oracle = run.make_oracle(slns)
        slns.StochasticSolver = faulty_solver(original, **faults[fault])
        try:
            trajectories = [run.run_trajectory(lib, workload, seed, oracle) for seed in range(seeds)]
        finally:
            slns.StochasticSolver = original
        problems = run.oracle_problems(trajectories, workload.gate(ROOT))
        check(bool(problems), f"{name} with a {fault} fails the oracle checks {problems}")


def check_bare_directory() -> None:
    bare = ROOT / ".perfbench-out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        code, lines = bench(SPEC["workloads"][0]["name"], 0, cwd=bare)
        check(code != 0 and not lines, "without the library the benchmark fails and prints no result")
    finally:
        shutil.rmtree(bare)


def main() -> int:
    check_tracer()
    check_faults()
    check_bare_directory()
    check_metrics()
    print("selftest:", "FAILED" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
