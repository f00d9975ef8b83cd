import dataclasses
from pathlib import Path

import numpy as np
import pytest

from conftest import fit_order, spline_builds
import slns.flowmap
import slns.recovery
import slns.solver
import slns.spectral
from slns.config import compare_gates
from slns.errors import CFLViolation, ConfigError, NonFiniteVelocity, NonInvertible
from slns.flowmap import FlowEnsemble
from slns.grid import Field, PeriodicGrid
from slns.interp import FieldInterpolator
from slns.reference import (
    cole_hopf_burgers,
    spectral_ns_run,
    taylor_green_2d,
    taylor_green_decay_rate,
)
from slns.solver import (
    CIRCULATION_COLUMNS,
    DIAG_COLUMNS,
    SolverConfig,
    StochasticSolver,
    convergence_study,
    oracle_solution,
    relative_l2_error,
    run,
    spectral_resample,
)
from slns.spectral import curl_values, workspace

L = 2 * np.pi
EXAMPLES = Path(__file__).resolve().parents[1] / "examples_cfg"


def tg_config(**kw):
    base = dict(
        equation="navier_stokes",
        dim=2,
        n=64,
        nu=0.05,
        dt=5e-3,
        t_end=0.05,
        realizations=64,
        seed=0,
    )
    base.update(kw)
    return SolverConfig(**base)


def burgers_config(**kw):
    base = dict(
        equation="burgers",
        dim=1,
        n=128,
        nu=0.1,
        dt=2e-3,
        t_end=0.1,
        realizations=128,
        seed=0,
        initial="sine_mode",
        initial_params={"mode": 1, "amplitude": 1.0},
    )
    base.update(kw)
    return SolverConfig(**base)


class TestConfigValidation:
    def test_euler_requires_zero_viscosity(self):
        with pytest.raises(ConfigError):
            SolverConfig(equation="euler", nu=0.1)

    def test_t_end_must_divide(self):
        with pytest.raises(ConfigError):
            tg_config(dt=3e-3, t_end=0.05)

    def test_unknown_equation(self):
        with pytest.raises(ConfigError):
            SolverConfig(equation="stokes")

    def test_non_power_of_two(self):
        with pytest.raises(ConfigError):
            tg_config(n=100)

    def test_forcing_values_must_be_finite_numbers(self):
        for amplitude in ("x", np.nan, np.inf, [1.0, 2.0], None):
            with pytest.raises(ConfigError, match=r"\[forcing\] amplitude"):
                tg_config(forcing="steady_taylor_green", forcing_params={"amplitude": amplitude})
        for vector in ([np.nan, 0.0], [0.0, "1"], [0.1]):
            with pytest.raises(ConfigError, match=r"\[forcing\] vector"):
                tg_config(forcing="constant", forcing_params={"vector": vector})
        with pytest.raises(ConfigError, match="must be one of"):
            tg_config(forcing="gravity")

    def test_circulation_curve_is_a_circle(self):
        with pytest.raises(ConfigError, match="kind"):
            tg_config(circulation_curve={"kind": "circle"})
        with pytest.raises(ConfigError, match="center"):
            tg_config(circulation_curve={"center": [1.0, np.nan]})
        assert StochasticSolver(tg_config(circulation_curve={})).curve is not None

    def test_divergent_initial_rejected(self):
        with pytest.raises(ConfigError, match="divergence-free"):
            tg_config(initial="sine_mode", initial_params={"mode": 1})

    @pytest.mark.parametrize(
        "field, value",
        [("n", 64.0), ("dt", "0.01"), ("realizations", 8.0), ("seed", 1.5),
         ("picard_iters", 2.0), ("substeps", 1.0), ("snapshot_interval", 2.5),
         ("reset_interval", True), ("nu", False), ("backend", 1)],
    )
    def test_wrong_type_names_the_field(self, field, value):
        # the Python API rejects what a config file cannot hold, by name,
        # before any step runs
        with pytest.raises(ConfigError, match=field):
            tg_config(**{field: value})
        with pytest.raises(ConfigError, match=field):
            dataclasses.replace(tg_config(), **{field: value})

    def test_initial_field_built_once_per_config(self, monkeypatch):
        # the config keeps the field it checked; the solver and every
        # caller get a copy, and replace() builds and checks a new one
        built = _count_calls(monkeypatch, slns.solver, "analytic_field")
        cfg = tg_config(n=32)
        StochasticSolver(cfg)
        assert len(built) == 1
        cfg.initial_field().values[:] = 0.0
        assert np.array_equal(cfg.initial_field().values, taylor_green_2d(cfg.grid()).values)
        assert dataclasses.replace(cfg, seed=3) == tg_config(n=32, seed=3)
        assert len(built) == 3

    def test_numbers_are_stored_as_the_field_type(self):
        cfg = dataclasses.replace(tg_config(), n=np.int64(32), nu=0, t_end=np.float32(0.5))
        assert (type(cfg.n), type(cfg.nu), type(cfg.t_end)) == (int, float, float)
        assert cfg == tg_config(n=32, nu=0.0, t_end=0.5)

    @pytest.mark.parametrize("make", [tg_config, burgers_config])
    def test_alpha_only_for_lans_alpha(self, make):
        # alpha filters the drift of lans_alpha only; elsewhere it was ignored
        with pytest.raises(ConfigError, match="alpha"):
            make(alpha=0.5)
        assert tg_config(equation="lans_alpha", alpha=0.5).alpha == 0.5

    def test_1d_vector_may_be_one_number(self):
        for vector in (0.1, [0.1]):
            cfg = burgers_config(forcing="constant", forcing_params={"vector": vector})
            pts = cfg.grid().coordinates()
            assert np.array_equal(cfg.forcing_fn()(pts, 0.0), np.full(pts.shape, 0.1))


class TestTrivialRuns:
    def test_zero_steps_returns_initial(self):
        res = run(tg_config(t_end=0.0))
        u0 = taylor_green_2d(PeriodicGrid(2, 64, L))
        assert np.array_equal(res.velocity.values, u0.values)
        assert len(res.diagnostics) == 0

    def test_same_seed_identical_csv(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        run(tg_config(t_end=0.02, output_dir=str(a)))
        run(tg_config(t_end=0.02, output_dir=str(b)))
        assert (a / "diag.csv").read_bytes() == (b / "diag.csv").read_bytes()
        snaps_a = sorted(p.name for p in a.glob("snapshot_*"))
        for name in snaps_a:
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_different_seed_differs(self):
        r1 = run(tg_config(t_end=0.02, seed=1))
        r2 = run(tg_config(t_end=0.02, seed=2))
        assert not np.array_equal(r1.velocity.values, r2.velocity.values)


class TestSteadyEuler:
    def test_taylor_green_stays_fixed(self):
        cfg = tg_config(equation="euler", nu=0.0, realizations=1, dt=1e-2, t_end=0.1)
        res = run(cfg)
        u0 = taylor_green_2d(cfg.grid())
        assert (res.velocity - u0).max_norm() <= 1e-4

    def test_noise_free_run_is_deterministic_pipeline(self):
        # nu = 0 never samples noise: identical fields for any M
        r1 = run(tg_config(equation="euler", nu=0.0, realizations=1, t_end=0.02))
        r2 = run(tg_config(equation="euler", nu=0.0, realizations=7, t_end=0.02))
        assert np.array_equal(r1.velocity.values, r2.velocity.values)

    def test_reset_interval_invariance_deterministic(self):
        # deterministic flow: resetting labels every step or every 5 steps
        # must agree to the scheme's own accuracy
        r1 = run(tg_config(equation="euler", nu=0.0, realizations=1, t_end=0.05, reset_interval=1))
        r5 = run(tg_config(equation="euler", nu=0.0, realizations=1, t_end=0.05, reset_interval=5))
        assert (r1.velocity - r5.velocity).max_norm() <= 20 * 5e-3 * 5e-3

    def test_reset_interval_invariance_unsteady(self):
        # Taylor-Green is steady under Euler, so only a moving field shows a
        # window that composes the wrong labels
        cfg = tg_config(equation="euler", nu=0.0, realizations=1, n=32, t_end=0.05,
                        initial="random_band_limited",
                        initial_params={"kmax": 2, "seed": 8, "divergence_free": True})
        r1 = run(cfg)
        for reset_interval in (5, 10):
            rw = run(dataclasses.replace(cfg, reset_interval=reset_interval))
            assert (r1.velocity - rw.velocity).max_norm() <= 1e-5


class TestSolverInvariants:
    def test_divergence_free_every_step(self):
        res = run(tg_config(t_end=0.05))
        umax = np.abs(res.velocity.values).max()
        assert res.diagnostics.column("max_divergence").max() <= 1e-10 * max(umax, 1.0)

    def test_mean_flow_conserved(self):
        res = run(tg_config(t_end=0.05))
        assert np.max(np.abs(res.velocity.mean())) <= 1e-12

    def test_energy_nonincreasing_within_mc_tolerance(self):
        res = run(tg_config(t_end=0.1, realizations=256))
        e = res.diagnostics.column("energy")
        se = res.diagnostics.column("probe_se_accum")
        increases = np.diff(e)
        assert np.all(increases <= 3.0 * np.pi**2 * (se[1:] + 1e-6))

    def test_det_jacobian_near_one(self):
        res = run(tg_config(t_end=0.05, realizations=128))
        assert res.diagnostics.column("max_det_dev").max() <= 1e-3

    def test_cfl_violation_raised(self):
        cfg = tg_config(dt=0.05, t_end=0.05)  # CFL 0.51
        with pytest.raises(CFLViolation):
            run(cfg)

    def test_non_invertible_raised(self):
        # a tolerance below rounding cannot be met within MAX_UPDATES updates
        cfg = tg_config(inversion_tol_factor=1e-17, t_end=5e-3)
        with pytest.raises(NonInvertible, match="stalled"):
            run(cfg)

    def test_nan_velocity_raises_typed_error(self):
        solver = StochasticSolver(tg_config(n=32, realizations=4, t_end=0.01))
        solver.u_values = solver.u_values.copy()
        solver.u_values[0, 3, 5] = np.nan
        with pytest.raises(NonFiniteVelocity) as exc:
            solver.step()
        assert exc.value.exit_code == 4

    def test_partial_outputs_flushed_on_abort(self, tmp_path):
        out = tmp_path / "aborted"
        cfg = tg_config(dt=0.05, t_end=0.25, output_dir=str(out))
        with pytest.raises(CFLViolation):
            run(cfg)
        assert (out / "diag.csv").exists()

    def test_nu_continuity_toward_euler(self):
        # with common random numbers the NS runs approach the Euler run
        # monotonically in nu
        euler = run(tg_config(equation="euler", nu=0.0, realizations=1, t_end=0.05))
        errs = []
        for nu in (1e-3, 1e-2, 1e-1):
            res = run(tg_config(nu=nu, realizations=64, t_end=0.05, seed=5))
            errs.append((res.velocity - euler.velocity).max_norm())
        assert errs[0] < errs[1] < errs[2]


def _count_calls(monkeypatch, owner, name, calls=None):
    """The positional arguments of every call of ``owner.name`` from now
    on, appended to ``calls`` (a new list by default)."""
    calls = [] if calls is None else calls
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


class TestPicardPasses:
    """The first step runs a predictor and a corrector pass; every later
    step one, along the drift extrapolated to the half step."""

    def test_characteristic_function_built_once_per_step(self, monkeypatch):
        calls = _count_calls(monkeypatch, slns.flowmap, "shift_mean_multiplier")
        solver = StochasticSolver(burgers_config(reset_interval=1))
        per_step = []
        for _ in range(3):
            before = len(calls)
            solver.step()
            per_step.append(len(calls) - before)
        assert per_step == [1, 1, 1]

    def test_zero_tolerance_runs_every_pass(self, monkeypatch):
        seen = []  # the stage count of every advance
        real = FlowEnsemble.advanced

        def advanced(self, *args, stages=1):
            seen.append(stages)
            return real(self, *args, stages=stages)

        monkeypatch.setattr(FlowEnsemble, "advanced", advanced)
        solver = StochasticSolver(tg_config(n=32, realizations=8))
        solver.step()
        assert seen == [1, 2]
        solver.step()
        assert seen[2:] == [2]

    def test_only_the_last_pass_inverts_the_window_cores(self, monkeypatch):
        # the first step inverts the one shared core once per Picard pass,
        # and its passes share one chi; every later step runs one pass,
        # which inverts the window's M cores (their mean needs no chi), or
        # the shared core once when labels reset every step
        cores = _count_calls(monkeypatch, slns.flowmap, "invert_core")
        chis = _count_calls(monkeypatch, slns.flowmap, "shift_mean_multiplier")
        per_step = {}
        for reset_interval in (4, 1):
            solver = StochasticSolver(tg_config(n=32, realizations=8, reset_interval=reset_interval))
            per_step[reset_interval] = []
            for _ in range(4):
                before = len(cores), len(chis)
                solver.step()
                per_step[reset_interval].append((len(cores) - before[0], len(chis) - before[1]))
        assert per_step[4] == [(2, 1)] + [(8, 0)] * 3
        assert per_step[1] == [(2, 1)] + [(1, 1)] * 3

    # the alpha model extrapolates the filtered velocity u, not the momentum
    @pytest.mark.parametrize("kw", [{}, dict(equation="lans_alpha", alpha=0.5)],
                             ids=["navier-stokes", "lans-alpha"])
    def test_drift_extrapolated_across_a_label_reset(self, monkeypatch, kw):
        drifts = _count_calls(monkeypatch, FlowEnsemble, "advanced")
        solver = StochasticSolver(tg_config(n=32, realizations=8, reset_interval=2, **kw))
        u = [solver.u_values]
        for _ in range(4):
            solver.step()
            u.append(solver.u_values)
        # args are (ensemble, u_values, dt, noise); steps 3 and 4 follow the
        # reset that ends step 2
        assert len(drifts) == 2 + 3
        for n, args in zip((1, 2, 3), drifts[2:]):
            assert np.array_equal(args[1], 1.5 * u[n] - 0.5 * u[n - 1])


class TestWorkPerStep:
    """Spline builds are deterministic, so their counts are exact."""

    @pytest.mark.parametrize("reset_interval", [1, 4])
    def test_no_gradient_spline_and_labels_prefiltered_once(self, monkeypatch, reset_interval):
        # each step of one label window (one shared step, or four steps of
        # a window) prefilters each label field once, except that each of
        # the first step's two Picard passes composes the velocity labels
        solver = StochasticSolver(tg_config(n=32, realizations=8, reset_interval=reset_interval))
        labels = (solver.labels_u, solver.labels_omega)
        built = spline_builds(monkeypatch)
        per_step = []
        for _ in range(reset_interval):
            start = len(built)
            solver.step()
            per_step.append([sum(v is label for v in built[start:]) for label in labels])
        # a d^2-component spline is the Newton fallback's grad xi
        assert [len(v) for v in built].count(4) == 0
        assert per_step == [[2, 1]] + [[1, 1]] * (reset_interval - 1)

    def test_window_translates_nothing_and_projects_only_means(self, monkeypatch):
        # each recovery composes in the core frame, averages once in Fourier
        # space and projects that one mean: 2 Picard passes in the first
        # step, then one pass in each of the other 3
        translated, projected = [], []
        for module in (slns.flowmap, slns.recovery):
            _count_calls(monkeypatch, module, "translate_batch", translated)
        for module in (slns.spectral, slns.recovery):
            _count_calls(monkeypatch, module, "project_coeffs", projected)
        solver = StochasticSolver(tg_config(n=32, realizations=8, reset_interval=4))
        for _ in range(4):
            solver.step()
        assert len(translated) == 0
        assert [args[0].shape for args in projected] == [(2, 32, 17)] * 5

    def test_one_xi_evaluation_per_node_per_core(self, monkeypatch):
        # the Taylor start meets tol at every node of a shared core, so the
        # residual check is the only interpolation inversion does
        solver = StochasticSolver(tg_config(n=32, realizations=8))
        per_core = []  # xi points evaluated by each invert_core call
        inside = []
        real_invert, real_at = slns.flowmap.invert_core, FieldInterpolator.at

        def invert(grid, xi, *args):
            per_core.append(0)
            inside.append(True)
            try:
                return real_invert(grid, xi, *args)
            finally:
                inside.pop()

        def at(self, pts):
            if inside:
                per_core[-1] += int(np.prod(pts.shape[1:]))
            return real_at(self, pts)

        monkeypatch.setattr(slns.flowmap, "invert_core", invert)
        monkeypatch.setattr(FieldInterpolator, "at", at)
        solver.step()
        assert per_core and per_core == [32 * 32] * len(per_core)

    def test_second_shared_step_composes_its_labels_once(self, monkeypatch):
        # one pass: the two-stage rule's drift spline, the core's inversion,
        # the labels (the ones the first step's reset set), then vorticity
        # and the probes (3 points per realization)
        solver = StochasticSolver(tg_config())
        solver.step()
        n = 64 * 64
        assert _points_per_pass(monkeypatch, solver) == [[n, n, n, n, 3 * 64]]


def _points_per_pass(monkeypatch, solver):
    """The point count of every ``FieldInterpolator.at`` call in the next
    step of ``solver``, one list per pass (the last pass's list ends with
    the step's diagnostics)."""
    passes = []
    real_advanced, real_at = FlowEnsemble.advanced, FieldInterpolator.at

    def advanced(self, *args, **kwargs):
        passes.append([])
        return real_advanced(self, *args, **kwargs)

    def at(self, pts):
        passes[-1].append(int(np.prod(pts.shape[1:])))
        return real_at(self, pts)

    monkeypatch.setattr(FlowEnsemble, "advanced", advanced)
    monkeypatch.setattr(FieldInterpolator, "at", at)
    solver.step()
    return passes


class TestEulerPredictorLabels:
    """The first step's predictor pass (one-stage for ``direct_sde``)
    composes its labels like every other pass."""

    N = 64 * 64
    PROBES = 3 * 64  # the default probes, once per realization

    @pytest.mark.parametrize(
        "kw, first_pass, last_pass",
        [
            # the drift is the filtered momentum, not the labels
            (dict(equation="lans_alpha", alpha=0.5), [N, N], [N, N, N, N, PROBES]),
            # the labels carry dt f; forced runs track no vorticity labels
            (dict(forcing="steady_taylor_green"), [N, N], [N, N, N, PROBES]),
            # the first pass is a two-stage step
            (dict(backend="translated_flow"), [N, N, N], [N, N, N, N, PROBES]),
        ],
    )
    def test_other_predictors_compose_their_labels(self, monkeypatch, kw, first_pass, last_pass):
        passes = _points_per_pass(monkeypatch, StochasticSolver(tg_config(**kw)))
        assert passes == [first_pass, last_pass]


class TestBurgersSolver:
    def test_tracks_cole_hopf(self):
        cfg = burgers_config(t_end=0.2, realizations=512, n=128, dt=2e-3)
        res = run(cfg)
        x = cfg.grid().axis()
        ref = cole_hopf_burgers(-np.cos(x), L, cfg.nu, 0.2, x)
        rel = np.sqrt(np.sum((res.velocity.values[0] - ref) ** 2) / np.sum(ref**2))
        se = res.diagnostics.column("probe_se_accum")[-1]
        assert rel <= 3.0 * se + 5e-3

    def test_mean_conserved_1d(self):
        cfg = burgers_config(t_end=0.1)
        res = run(cfg)
        assert np.max(np.abs(res.velocity.mean())) <= 1e-12


class TestLansAlpha:
    def test_alpha_zero_bit_identical_to_ns(self, tmp_path):
        a = tmp_path / "ns"
        b = tmp_path / "lans0"
        run(tg_config(t_end=0.02, output_dir=str(a)))
        run(tg_config(equation="lans_alpha", alpha=0.0, t_end=0.02, output_dir=str(b)))
        assert (a / "diag.csv").read_bytes() == (b / "diag.csv").read_bytes()

    def test_alpha_positive_filter_residual(self):
        cfg = tg_config(equation="lans_alpha", alpha=0.5, t_end=0.05, realizations=64)
        res = run(cfg)
        from slns.spectral import laplacian_values, workspace

        ws = workspace(cfg.grid())
        u = res.velocity.values
        forward = u - cfg.alpha**2 * laplacian_values(u, ws)
        assert np.max(np.abs(forward - res.momentum.values)) <= 1e-10
        umax = np.abs(u).max()
        assert res.diagnostics.column("max_divergence").max() <= 1e-10 * max(umax, 1.0)


class TestProbeSE:
    def test_se_shrinks_at_half_order_in_m(self):
        rows = convergence_study(
            tg_config(t_end=0.02, realizations=100), "realizations", 4
        )
        ses = [r["error"] for r in rows]
        ms = [r["value"] for r in rows]
        slope = np.polyfit(np.log(ms), np.log(ses), 1)[0]
        assert slope == pytest.approx(-0.5, abs=0.15)

    @pytest.mark.parametrize("reset_interval", [10, 1])
    def test_accumulated_se_matches_seed_to_seed_spread(self, reset_interval):
        # 24 seeds of 10 steps, one label window or ten; a step's SE already
        # covers every shift since its window's reset, so a sum over every
        # step of a window reads about 2.3x the spread
        finals, accum = [], []
        for seed in range(24):
            solver = StochasticSolver(tg_config(n=32, realizations=16, seed=seed,
                                                reset_interval=reset_interval))
            for _ in range(10):
                solver.step()
            spline = FieldInterpolator(solver.grid, solver.u_values)
            finals.append(spline.at(solver.probes))
            accum.append(solver.diagnostics.column("probe_se_accum")[-1])
        spread = np.max(np.std(finals, axis=0, ddof=1))
        assert 0.75 <= np.mean(accum) / spread <= 1.33


class TestConvergenceStudies:
    def test_requires_three_levels(self):
        with pytest.raises(ConfigError):
            convergence_study(tg_config(), "dt", 2)

    def test_unknown_reference_rejected_before_any_run(self, monkeypatch):
        def boom(cfg):
            raise AssertionError("a level ran before the reference was checked")

        monkeypatch.setattr(slns.solver, "run", boom)
        with pytest.raises(ConfigError, match="orcale"):
            convergence_study(burgers_config(), "dt", 3, reference="orcale")

    def test_realization_axis_from_one_realization(self):
        # one realization has no spread: the first slope is infinite, not
        # a division error
        cfg = burgers_config(n=32, t_end=0.01, realizations=1)
        rows = convergence_study(cfg, "realizations", 3)
        assert rows[0]["error"] == 0.0 and rows[1]["order"] == np.inf

    def test_euler_dt_order_two(self):
        # a non-steady inviscid flow shows the Heun-corrected scheme's
        # second-order self-convergence
        # the Newton stop tolerance accumulates over T/dt steps, so it is
        # tightened here to keep the time-discretization error dominant
        cfg = tg_config(
            equation="euler",
            nu=0.0,
            realizations=1,
            dt=2e-2,
            t_end=0.4,
            n=64,
            initial="random_band_limited",
            initial_params={"kmax": 2, "seed": 8, "divergence_free": True},
            inversion_tol_factor=1e-12,
        )
        rows = convergence_study(cfg, "dt", 4)
        errs = [r["error"] for r in rows]
        order = fit_order(1.0 / np.array([r["value"] for r in rows]), errs)
        assert order >= 1.8

    def test_burgers_dt_order_with_crn(self):
        cfg = burgers_config(dt=8e-3, t_end=0.16, realizations=64, n=128)
        rows = convergence_study(cfg, "dt", 4)
        errs = [r["error"] for r in rows]
        order = fit_order(1.0 / np.array([r["value"] for r in rows]), errs)
        assert order >= 0.8

    def test_resolution_axis_spectral(self):
        cfg = tg_config(
            equation="euler",
            nu=0.0,
            realizations=1,
            n=16,
            dt=5e-3,
            t_end=0.05,
            initial="random_band_limited",
            initial_params={"kmax": 3, "seed": 4, "divergence_free": True},
        )
        rows = convergence_study(cfg, "n", 4)
        errs = np.array([r["error"] for r in rows])
        assert errs[-1] <= errs[0]
        order = fit_order(np.array([r["value"] for r in rows], dtype=float), errs)
        assert order >= 3.0


class TestResample:
    def test_roundtrip_band_limited(self):
        g = PeriodicGrid(2, 32, L)
        from slns.reference import random_band_limited

        f = random_band_limited(g, kmax=5, seed=3, components=2)
        up = spectral_resample(f, 64)
        back = spectral_resample(up, 32)
        assert (back - f).max_norm() <= 1e-12

    def test_identity(self):
        g = PeriodicGrid(1, 32, L)
        f = Field.from_callable(g, lambda c: np.sin(c[0]))
        assert (spectral_resample(f, 32) - f).max_norm() == 0.0


class TestOracleSolution:
    def test_burgers_oracle(self):
        cfg = burgers_config()
        ref = oracle_solution(cfg, 0.1)
        x = cfg.grid().axis()
        direct = cole_hopf_burgers(-np.cos(x), L, cfg.nu, 0.1, x)
        assert np.max(np.abs(ref.values[0] - direct)) <= 1e-12

    def test_taylor_green_oracle(self):
        cfg = tg_config()
        ref = oracle_solution(cfg, 0.5)
        decay = np.exp(-taylor_green_decay_rate(L, cfg.nu) * 0.5)
        u0 = taylor_green_2d(cfg.grid())
        assert (ref - decay * u0).max_norm() <= 1e-12

    @pytest.mark.parametrize(
        "kw",
        [
            dict(),
            dict(forcing="steady_taylor_green"),
            dict(forcing="steady_taylor_green", forcing_params={"amplitude": 0.5}),
        ],
    )
    def test_spectral_path_matches_closed_form(self, kw):
        # the spectral reference and the Taylor-Green closed forms are two
        # code paths for one solution
        cfg = tg_config(n=32, **kw)
        for t in (0.05, 0.5):
            closed = oracle_solution(cfg, t)
            assert relative_l2_error(oracle_solution(cfg, t, "spectral_ns"), closed) <= 1e-12

    def test_abc_oracle_is_the_exact_decay(self, monkeypatch):
        # ABC is a Beltrami field, so u0 exp(-nu k^2 t) solves Navier-Stokes;
        # the analytic oracle returns it without integrating the reference
        cfg = SolverConfig(dim=3, n=16, nu=0.05, initial="abc_flow",
                           initial_params={"a": 1.0, "b": 0.7, "c": 0.4})
        times = [0.1, 0.5]
        spectral = spectral_ns_run(cfg.initial_field(), cfg.nu, 1e-2, times)
        monkeypatch.setattr(slns.solver, "spectral_ns_run", None)
        for ref, closed in zip(spectral, oracle_solution(cfg, times)):
            assert relative_l2_error(closed, ref) <= 1e-10
        assert relative_l2_error(oracle_solution(cfg, 0.5), spectral[1]) <= 1e-10

    def test_generic_ns_oracle_runs(self):
        cfg = tg_config(
            initial="random_band_limited",
            initial_params={"kmax": 3, "seed": 1, "divergence_free": True},
        )
        ref = oracle_solution(cfg, 0.05)
        assert ref is not None and ref.components == 2

    @pytest.mark.parametrize(
        "cfg, oracle, reason",
        [
            (tg_config(), "cole_hopf", "1D burgers"),
            (burgers_config(), "spectral_ns", "incompressible"),
            (tg_config(equation="lans_alpha", alpha=0.5), "analytic", "lans_alpha"),
            (burgers_config(nu=0.0), "analytic", "nu > 0"),
        ],
    )
    def test_oracle_that_does_not_apply_says_why(self, cfg, oracle, reason):
        with pytest.raises(ConfigError, match=reason):
            oracle_solution(cfg, 0.05, oracle)


class TestForcedWindows:
    @pytest.mark.parametrize("window", [dict(reset_interval=2)])
    def test_per_realization_forcing_labels(self, window):
        # moving maps turn the accumulated forcing into one label field per
        # realization; the steady state must still hold to the example's gate
        gate = compare_gates(EXAMPLES / "forced_steady.cfg")["rel_l2_max"]
        cfg = SolverConfig(
            n=32, realizations=64, t_end=0.1, forcing="steady_taylor_green", **window
        )
        res = run(cfg)
        assert relative_l2_error(res.velocity, oracle_solution(cfg, cfg.t_end)) <= gate

    @pytest.mark.parametrize("reset_interval", [1, 2])
    def test_vorticity_is_curl_of_velocity(self, reset_interval):
        # the forcing enters the label velocity only, so vorticity transported
        # from unforced labels would miss it
        cfg = SolverConfig(
            n=32,
            realizations=64,
            t_end=0.1,
            forcing="steady_taylor_green",
            reset_interval=reset_interval,
        )
        res = run(cfg)
        curl = curl_values(res.velocity.values, workspace(cfg.grid()))
        assert abs(res.diagnostics.column("max_vorticity")[-1] - np.max(np.abs(curl))) <= 1e-12


    @pytest.mark.parametrize("dt", [1e-2, 5e-3])
    def test_constant_forcing_mean_is_exact(self, dt):
        # the spatial mean obeys d<u>/dt = <f>: each step's mean includes
        # that step's forcing
        cfg = SolverConfig(n=32, realizations=64, dt=dt, t_end=0.2, forcing="constant",
                           forcing_params={"vector": [0.5, 0.0]})
        mean = run(cfg).velocity.values.mean(axis=(1, 2))
        assert np.max(np.abs(mean - [0.1, 0.0])) <= 1e-12

    @pytest.mark.parametrize("reset_interval", [1, 10, 40])
    def test_forced_inviscid_burgers_is_exact(self, reset_interval):
        # u_t + u u_x = c has u(x, t) = v(x - c t^2 / 2, t) + c t, with v the
        # unforced solution, here sin(a) along x = a + t sin(a); Burgers
        # carries f(X) in its labels, not the Weber form (grad^T X) f(X)
        c, t = 0.5, 0.2
        cfg = burgers_config(n=256, nu=0.0, dt=2e-3, t_end=t, realizations=1,
                             reset_interval=reset_interval, forcing="constant",
                             forcing_params={"vector": c})
        y = cfg.grid().axis() - 0.5 * c * t**2
        a = y.copy()
        for _ in range(50):
            a -= (a + t * np.sin(a) - y) / (1.0 + t * np.cos(a))
        exact = Field(cfg.grid(), (np.sin(a) + c * t)[np.newaxis])
        assert relative_l2_error(run(cfg).velocity, exact) <= 1e-6

    def test_noise_free_forced_window_keeps_shared_labels(self):
        # at nu = 0 every realization is the one core with no shift, so the
        # forced labels stay one field and M does not change a bit
        base = dict(equation="euler", nu=0.0, n=32, t_end=0.05, reset_interval=20,
                    forcing="constant", forcing_params={"vector": [0.3, 0.1]})
        one = StochasticSolver(SolverConfig(realizations=1, **base))
        many = StochasticSolver(SolverConfig(realizations=16, **base))
        for _ in range(5):
            one.step()
            many.step()
            assert many.labels_u.shape == (2,) + one.grid.shape
        assert np.array_equal(one.u_values, many.u_values)


class TestCirculationDiagnostics:
    def test_rows_written(self, tmp_path):
        cfg = tg_config(
            t_end=0.02,
            realizations=8,
            circulation_curve={"center": [np.pi, np.pi], "radius": 1.0},
            output_dir=str(tmp_path / "c"),
        )
        res = run(cfg)
        csv = (tmp_path / "c" / "circulation.csv").read_text().splitlines()
        assert csv[0] == "time,realization,gamma_initial,gamma_transported,defect"
        assert len(csv) == 1 + 4 * 2  # 4 steps x 2 realizations
        defects = res.diagnostics.column("circulation_defect")
        assert np.all(defects < 1e-3)

    def test_csv_cells_read_back_exactly(self, tmp_path):
        cfg = tg_config(
            n=32,
            t_end=0.02,
            realizations=8,
            circulation_curve={},
            output_dir=str(tmp_path),
        )
        solver = StochasticSolver(cfg)
        solver.run()
        tables = (
            ("diag.csv", DIAG_COLUMNS, solver.diagnostics.rows),
            ("circulation.csv", CIRCULATION_COLUMNS, solver.circulation_rows),
        )
        for name, columns, rows in tables:
            lines = (tmp_path / name).read_text().splitlines()
            assert lines[0] == ",".join(columns)
            assert len(lines) == 1 + len(rows) and rows
            for line, row in zip(lines[1:], rows):
                for cell, col in zip(line.split(","), columns, strict=True):
                    if isinstance(row[col], int):  # step, realization
                        assert cell.isdigit() and int(cell) == row[col], (name, col, cell)
                    else:  # every float64 bit survives the text round trip
                        assert float(cell) == row[col], (name, col, cell)


class TestBackends:
    def test_nu_zero_never_samples_noise(self, monkeypatch):
        import slns.wiener as wiener

        def boom(self, step, dt):
            raise AssertionError("noise sampled in a nu=0 run")

        monkeypatch.setattr(wiener.WienerEnsemble, "increments", boom)
        res = run(tg_config(equation="euler", nu=0.0, realizations=2, t_end=0.02))
        assert res.velocity.components == 2

    def test_ten_step_backend_discrepancy_order_dt(self):
        # same Brownian paths, ten steps: the two drift integrators agree
        # to O(dt) over the window
        diffs = []
        dts = [8e-3, 4e-3, 2e-3]
        for lvl, dt in enumerate(dts):
            sub = 2 ** (len(dts) - 1 - lvl)
            fields = {}
            for backend in ("direct_sde", "translated_flow"):
                cfg = tg_config(
                    dt=dt,
                    t_end=10 * dt,
                    realizations=32,
                    backend=backend,
                    substeps=sub,
                    seed=3,
                )
                fields[backend] = run(cfg).velocity.values
            diffs.append(np.max(np.abs(fields["direct_sde"] - fields["translated_flow"])))
        order = fit_order(1.0 / np.asarray(dts), diffs)
        assert order >= 1.0


class TestOtherConfigurations:
    def test_3d_navier_stokes_smoke(self):
        cfg = SolverConfig(
            equation="navier_stokes",
            dim=3,
            n=16,
            nu=0.05,
            dt=5e-3,
            t_end=0.02,
            realizations=32,
            seed=2,
            initial="taylor_green_3d",
        )
        res = run(cfg)
        umax = np.abs(res.velocity.values).max()
        assert res.diagnostics.column("max_divergence").max() <= 1e-10 * umax
        assert res.diagnostics.column("max_det_dev").max() <= 1e-3
        e = res.diagnostics.column("energy")
        assert np.all(np.isfinite(e)) and e[-1] <= e[0] * 1.01

    def test_vector_burgers_2d_runs(self):
        # no projection, mean not pinned in several dimensions
        cfg = SolverConfig(
            equation="burgers",
            dim=2,
            n=32,
            nu=0.05,
            dt=5e-3,
            t_end=0.02,
            realizations=16,
            seed=1,
            initial="random_band_limited",
            initial_params={"kmax": 2, "seed": 3, "components": 2},
        )
        res = run(cfg)
        assert np.all(np.isfinite(res.velocity.values))

    def test_translated_backend_multistep_window(self):
        cfg = tg_config(
            backend="translated_flow",
            t_end=0.03,
            reset_interval=3,
            realizations=8,
        )
        res_t = run(cfg)
        res_d = run(tg_config(t_end=0.03, reset_interval=3, realizations=8))
        diff = np.abs(res_t.velocity.values - res_d.velocity.values).max()
        assert 0.0 < diff <= 10 * cfg.dt**2
