"""slns benchmark: one workload per process, timed end to end or traced.

Usage, from the repository root::

    python3 perfbench/run.py --workload tg2d-shared --seed 1 --seconds 30 --trace 0

The library is imported from ``src/`` of the checkout this file sits in.
A run integrates short fixed-length trajectories of the workload through
the public API (``SolverConfig``, ``StochasticSolver.step``,
``oracle_solution``) for at least ``--seconds``.

``--trace 0`` runs one trajectory per Brownian seed derived from
``--seed``, then repeats the first seed to check that the final velocity
is bit-identical, then cycles the seeds while ``--seconds`` have not
passed (the distinct seeds always run, so a run may take longer; its
length is printed as ``elapsed_s``). It reports the end-to-end metrics:
set-up time (constructor through the first step, in fresh processes),
median and tail ms per later step, the relative L2 error against the
oracle and the Monte Carlo standard error (both averaged over the distinct
seeds), and peak RSS.

``--trace 1`` alternates untraced and traced trajectories of one seed and
reports per-step layer metrics from the outside-in tracer (see
``tracer.py``), the tracing overhead (traced minus untraced median step
time) and writes the spans to ``.perfbench-out/``.

Times are scaled to a reference host speed with a calibration kernel timed
between steps (see ``CALIBRATIONS``); the raw wall times and the
kernel's median are printed on the line before the result. Every final
field is checked to be finite and identical across same-seed runs. An
untraced run also checks the distinct seeds against the oracle: their mean
error must lie within the ``rel_l2_max`` gate of the matching
``examples_cfg`` file, and their mean change from the initial field must
follow the oracle's change (see ``oracle_problems``). A step that raises
or yields a non-finite field is a failed step, and the steps its
trajectory did not reach fail with it. The last line of standard output is
the JSON result; the exit code is 1 when a check fails and 2 when the
library cannot be loaded.
"""

import os

# pin BLAS/OpenMP pools before numpy loads: one process, one thread
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench-out"
SETUP_PROBES = 6


class LibraryMissing(Exception):
    pass


def load_library():
    """Import ``slns`` from this checkout's ``src/`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "slns" / "__init__.py").is_file():
        raise LibraryMissing(f"no slns package under {src}")
    sys.path.insert(0, str(src))
    import slns
    from slns.solver import relative_l2_error

    if Path(slns.__file__).resolve().parent != (src / "slns").resolve():
        raise LibraryMissing(f"slns imported from {slns.__file__}, not from {src}")
    return slns, relative_l2_error


def _spectral_kernel():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((128, 128))

    def run() -> None:
        for _ in range(4):
            np.fft.irfft2(np.fft.rfft2(a), s=a.shape)
            a @ a.T

    return run


def _phase_kernel():
    rng = np.random.default_rng(0)
    shifts = rng.uniform(0.0, 0.1, 4096)

    def run() -> None:
        np.cumprod(np.broadcast_to(np.exp(-1j * shifts), (128, shifts.size)), axis=0).mean(axis=1)

    return run


# Host-speed normalisation. Other tenants of a shared host slow every kernel
# by up to 2x, switching within a second and staying for up to minutes, so
# raw wall times do not repeat between runs. A fixed calibration kernel is
# timed at most every ``CALIBRATE_EVERY_S``: before a timed step (so it
# brackets every step of the slow ``tg2d-window``, and a group of short
# trajectories elsewhere) and after each trajectory. Each step time is
# reported scaled by ``reference_ms / kernel_ms``, where ``kernel_ms`` is
# the mean of the kernel times just before and just after it. The kernel's
# first call after a step is not timed, so the caches the step leaves behind
# do not enter its time. The reported figures are thus wall times on a host
# where the kernel takes ``reference_ms``; each reference is the kernel's
# median over seven minutes on a 2-vCPU x86 VM (numpy 2.4), so they stay
# close to wall ms there. Compute-bound and memory-bound code slow by
# different factors, and neither kernel tracks the other workload's step
# time, so each workload uses the kernel that resembles its hot path: FFTs
# and small dense products for the 2D workloads, the (n/2, M) complex phase
# ladder of the shift characteristic function for Burgers.
CALIBRATIONS = {  # name -> (kernel factory, reference_ms)
    "spectral": (_spectral_kernel, 2.1),
    "phase": (_phase_kernel, 10.5),
}
CALIBRATE_EVERY_S = 0.25


def calibration_ms(kind: str) -> float:
    """Median of three timings of the named calibration kernel, after one
    untimed call."""
    kernel = CALIBRATIONS[kind][0]()
    kernel()
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times)


class Calibrator:
    """Times the kernel between steps and gives each timed step the mean of
    the kernel times that bracket it."""

    def __init__(self, kind: str):
        self.kind = kind
        self.samples = [calibration_ms(kind)]
        self.pending: list[tuple[Trajectory, int]] = []
        self.last = time.perf_counter()

    def point(self, force: bool = False) -> None:
        """A point between steps: time the kernel if it is due."""
        if not self.pending or not (force or time.perf_counter() - self.last >= CALIBRATE_EVERY_S):
            return
        self.samples.append(calibration_ms(self.kind))
        for traj, index in self.pending:
            traj.step_calib_ms[index] = 0.5 * (self.samples[-2] + self.samples[-1])
        self.pending = []
        self.last = time.perf_counter()

    def timed(self, traj: "Trajectory") -> None:
        """Register the step just appended to ``traj.step_s``."""
        traj.step_calib_ms.append(float("nan"))
        self.pending.append((traj, len(traj.step_s) - 1))


@dataclass
class Trajectory:
    seed: int
    traced: bool
    step_s: list = field(default_factory=list)
    step_ids: list = field(default_factory=list)
    step_calib_ms: list = field(default_factory=list)
    failed: int = 0
    error: str = ""
    rel_l2: float = float("nan")
    change_ratio: float = float("nan")
    mc_se: float = float("nan")
    digest: str = ""


def _check_finite(solver) -> None:
    if not np.all(np.isfinite(solver.u_values)):
        raise FloatingPointError("non-finite velocity")


def run_trajectory(lib, workload, seed, oracle, calibrator=None, tracer=None, first_step_id=0) -> Trajectory:
    """Integrate one trajectory; with ``calibrator``, calibrate between
    steps; with ``tracer``, steps after the first are traced. Any exception
    or non-finite field fails the step and the rest."""
    slns, relative_l2_error = lib
    traj = Trajectory(seed=seed, traced=tracer is not None)
    cfg = workload.config(seed)
    done = 0
    installed = False
    try:
        solver = slns.StochasticSolver(cfg)
        solver.step()
        _check_finite(solver)
        done = 1
        if tracer is not None:
            tracer.install()
            installed = True
        for i in range(1, workload.steps):
            step_id = first_step_id + i
            if calibrator is not None:
                calibrator.point()
            if tracer is not None:
                tracer.begin_step(step_id)
            ok = False
            try:
                t0 = time.perf_counter()
                solver.step()
                traj.step_s.append(time.perf_counter() - t0)
                ok = True
            finally:
                if tracer is not None:
                    tracer.end_step(failed=not ok)
            traj.step_ids.append(step_id)
            if calibrator is not None:
                calibrator.timed(traj)
            _check_finite(solver)
            done = i + 1
    except Exception as exc:  # a failed step is counted and the run goes on
        traj.failed = workload.steps - done
        traj.error = f"step {done + 1}: {type(exc).__name__}: {exc}"
        return traj
    finally:
        if installed:
            tracer.uninstall()
    final = solver.velocity_field()
    exact = oracle(cfg, solver.t)
    traj.digest = hashlib.sha256(np.ascontiguousarray(final.values).tobytes()).hexdigest()
    traj.rel_l2 = relative_l2_error(final, exact)
    traj.change_ratio = change_ratio(final.values, exact.values, cfg.initial_field().values)
    traj.mc_se = float(solver.diagnostics.column("probe_se_accum")[-1])
    return traj


def change_ratio(final, exact, initial) -> float:
    """Projection of the computed change ``final - initial`` onto the
    oracle's change ``exact - initial``, relative to the latter: 1 when the
    solver moves the field as the oracle does, 0 when a step leaves it
    unchanged, negative when it moves the field the wrong way, and about 10
    on Taylor-Green (whose change is all viscous decay) when the viscosity
    is ten times too large."""
    expected = exact - initial
    return float(np.vdot(final - initial, expected) / np.vdot(expected, expected))


# Over the short trajectories a run integrates, the oracle's change from
# the initial field is about 1e-3 of the field, below the Monte Carlo error,
# so the ``rel_l2_max`` gate alone passes a step that does nothing. The
# change ratio resolves it: per seed it scatters by 0.0007
# (burgers1d-shared), 0.02 (tg2d-shared) and 0.25 (tg2d-window), and its
# mean over the distinct seeds of a run by 0.03 between tg2d-window runs.
# A correct program thus stays well within the tolerance, while a frozen
# step (0), a reversed one (below 0) and, on Taylor-Green, a tenfold
# viscosity (about 10) fall outside it.
CHANGE_RATIO_TOL = 0.25


def oracle_problems(trajectories, gate: float) -> list[str]:
    """Checks of the distinct seeds against the oracle: the mean relative
    error within ``gate`` and the mean change ratio within
    ``CHANGE_RATIO_TOL`` of 1. The gate applies to the mean because with
    M = 16 a single seed's Monte Carlo error exceeds it about once in a
    hundred seeds."""
    problems = []
    rel_l2 = _mean([t.rel_l2 for t in trajectories])
    ratio = _mean([t.change_ratio for t in trajectories])
    if rel_l2 is None or not rel_l2 <= gate:
        problems.append(f"mean rel_l2_error {rel_l2} above gate {gate}")
    if ratio is None or not abs(ratio - 1.0) <= CHANGE_RATIO_TOL:
        problems.append(f"mean change ratio {ratio} against the oracle is not within {CHANGE_RATIO_TOL} of 1")
    return problems


def setup_once(lib, workload, seed: int) -> tuple[float, float]:
    """Seconds from ``StochasticSolver(config)`` through its first step, and
    the calibration time measured after it."""
    slns, _ = lib
    cfg = workload.config(seed)
    t0 = time.perf_counter()
    slns.StochasticSolver(cfg).step()
    setup_s = time.perf_counter() - t0
    return setup_s, calibration_ms(workload.calibration)


def setup_probe(workload, seed: int) -> tuple[float, float] | str:
    """Set-up time measured in a fresh process, so that per-process caches
    (the spectral workspace, FFT plans) and first-touch costs are paid as
    by a user's run. Returns ``(setup_s, calib_ms)`` or an error message."""
    try:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload.name,
             "--seed", str(seed), "--seconds", "0", "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=60,
        )
    except subprocess.TimeoutExpired:
        return "set-up probe timed out"
    if proc.returncode != 0:
        return f"set-up probe failed: {proc.stderr.strip()[-300:]}"
    setup_s, calib = proc.stdout.split()[-2:]
    return float(setup_s), float(calib)


def tail(samples_ms: list[float]) -> tuple[float, float]:
    """Value and percentile of the highest percentile that leaves at least
    ten samples beyond it (the eleventh-largest sample)."""
    ordered = sorted(samples_ms)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def _median(values):
    values = [v for v in values if v == v]
    return statistics.median(values) if values else None


def _mean(values):
    values = [v for v in values if v == v]
    return statistics.fmean(values) if values else None


def make_oracle(slns):
    cache = {}

    def oracle(cfg, t):
        key = (cfg.equation, round(t, 12))
        if key not in cache:
            cache[key] = slns.oracle_solution(cfg, t)
        return cache[key]

    return oracle


def schedule(workload, seed: int, deadline: float, trace: bool):
    """Yield ``(brownian_seed, traced)`` per trajectory.

    Untraced runs take one trajectory per derived seed, then the first seed
    again (the bitwise repeat check), then cycle until ``deadline``. Traced
    runs alternate untraced and traced trajectories of the first seed.
    """
    seeds = [1000 * seed + j for j in range(workload.seeds)]
    if trace:
        count = 0
        while count < 2 or count % 2 or time.perf_counter() < deadline:
            yield seeds[0], count % 2 == 1
            count += 1
        return
    for s in seeds + seeds[:1]:
        yield s, False
    count = 1
    while time.perf_counter() < deadline:
        yield seeds[count % len(seeds)], False
        count += 1


def measure(lib, workload, seed: int, seconds: float, trace: bool, gate: float) -> dict:
    slns, _ = lib
    oracle = make_oracle(slns)
    tracer = Tracer() if trace else None
    start = time.perf_counter()
    trajectories: list[Trajectory] = []
    probes: list[tuple[float, float]] = []
    problems: list[str] = []
    n_probes = 0 if trace else SETUP_PROBES
    probes_run = 0

    def probe() -> None:
        nonlocal probes_run
        probes_run += 1
        outcome = setup_probe(workload, 1000 * seed)
        if isinstance(outcome, str):
            problems.append(outcome)
        else:
            probes.append(outcome)

    calibrator = Calibrator(workload.calibration)
    for brownian_seed, traced in schedule(workload, seed, start + seconds, trace):
        traj = run_trajectory(
            lib,
            workload,
            brownian_seed,
            oracle,
            calibrator,
            tracer if traced else None,
            first_step_id=len(trajectories) * workload.steps,
        )
        trajectories.append(traj)
        # spread the fresh-process set-up probes over the run
        probe_due = probes_run < n_probes and time.perf_counter() >= start + seconds * probes_run / n_probes
        calibrator.point(force=probe_due)
        if probe_due:
            probe()
    calibrator.point(force=True)
    while probes_run < n_probes:
        probe()
    elapsed_s = time.perf_counter() - start

    ref_ms = CALIBRATIONS[workload.calibration][1]

    def scaled_steps(trajs) -> tuple[list[float], list[float], dict[int, float]]:
        """Scaled and raw ms of every timed step, and the scale per step id."""
        scale = {i: ref_ms / c for t in trajs for i, c in zip(t.step_ids, t.step_calib_ms)}
        raw = [1e3 * s for t in trajs for s in t.step_s]
        ids = [i for t in trajs for i in t.step_ids]
        return [ms * scale[i] for ms, i in zip(raw, ids)], raw, scale

    attempted = len(trajectories) * workload.steps
    failed = sum(t.failed for t in trajectories)
    digests: dict[int, str] = {}
    problems += [f"seed {t.seed} {t.error}" for t in trajectories if t.error]
    for t in trajectories:
        if not t.digest:
            continue
        first = digests.setdefault(t.seed, t.digest)
        if t.digest != first:
            problems.append(f"seed {t.seed}: final velocity differs between same-seed runs")

    untraced, untraced_raw, _ = scaled_steps([t for t in trajectories if not t.traced])
    calibs = calibrator.samples + [c for _, c in probes]
    info = {
        "workload": workload.name,
        "seed": seed,
        "trace": int(trace),
        "trajectories": len(trajectories),
        "steps_per_trajectory": workload.steps,
        "elapsed_s": elapsed_s,
        "brownian_seeds": f"{min(digests)}..{max(digests)}" if digests else "",
        "final_velocity_sha256": {
            "first_seed": digests.get(trajectories[0].seed, ""),
            "all_seeds": hashlib.sha256("".join(digests[k] for k in sorted(digests)).encode()).hexdigest(),
        },
        "gate_rel_l2_max": gate,
        "fail_share": failed / attempted,
        "problems": problems,
        "calibration_ms": {
            "kernel": workload.calibration,
            "median": _median(calibs),
            "samples": len(calibs),
            "reference": ref_ms,
        },
        "waiting": "none: one process and one thread, no queue; every layer runs inline in the step",
        "host": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "threads": {var: os.environ[var] for var in THREAD_VARS},
        },
    }

    if trace:
        traced_ms, traced_raw, scale = scaled_steps([t for t in trajectories if t.traced])
        metrics = tracer.layer_metrics(scale) if scale else {}
        if traced_ms and untraced:
            metrics["trace.overhead_ms"] = _median(traced_ms) - _median(untraced)
        metrics["host.calib_ms"] = _median(calibs)
        info["step_ms_p50_untraced"] = {"scaled": _median(untraced), "raw": _median(untraced_raw)}
        info["step_ms_p50_traced"] = {"scaled": _median(traced_ms), "raw": _median(traced_raw)}
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"spans-{workload.name}-{seed}.jsonl"
        tracer.dump(spans_path)
        info["spans"] = str(spans_path.relative_to(ROOT))
    else:
        distinct = trajectories[: workload.seeds]
        tail_ms, tail_pct = tail(untraced) if untraced else (None, None)
        problems += oracle_problems(distinct, gate)
        metrics = {
            "setup_s": _median([setup * ref_ms / c for setup, c in probes]),
            "step_ms_p50": _median(untraced),
            "step_ms_tail": tail_ms,
            "rel_l2_error": _mean([t.rel_l2 for t in distinct]),
            "mc_se": _mean([t.mc_se for t in distinct]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        info["step_samples"] = len(untraced)
        info["tail_percentile"] = tail_pct
        info["setup_samples"] = len(probes)
        info["raw"] = {
            "step_ms_p50": _median(untraced_raw),
            "step_ms_tail": tail(untraced_raw)[0] if untraced_raw else None,
            "setup_s": _median([setup for setup, _ in probes]),
        }
        info["change_ratio"] = {
            "mean": _mean([t.change_ratio for t in distinct]),
            "tolerance": CHANGE_RATIO_TOL,
        }

    return {
        "info": info,
        "result": {
            "correct": not problems and failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help="print one set-up time and exit")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        lib = load_library()
        gate = workload.gate(ROOT)
    except (ImportError, LibraryMissing, OSError) as exc:
        print(f"perfbench: cannot load the library or its gates: {exc}", file=sys.stderr)
        return 2
    if args.setup_only:
        try:
            print(*setup_once(lib, workload, args.seed))
        except Exception as exc:  # reported by the parent as a failed probe
            print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
            return 1
        return 0

    try:
        out = measure(lib, workload, args.seed, args.seconds, bool(args.trace), gate)
    except Exception:  # a fault of the benchmark itself: report it, print no result
        print(f"perfbench: internal error\n{traceback.format_exc()}", file=sys.stderr)
        return 3
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = out["result"]["metrics"]
    out["result"]["metrics"] = {
        m["name"]: {"value": metrics.get(m["name"]), "unit": m["unit"]} for m in wanted
    }
    for problem in out["info"]["problems"]:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(json.dumps({"perfbench": out["info"]}))
    print(json.dumps(out["result"]))
    return 0 if out["result"]["correct"] else 1

if __name__ == "__main__":
    sys.exit(main())
