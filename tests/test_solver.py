from pathlib import Path

import numpy as np
import pytest

from conftest import fit_order
import slns.flowmap
from slns.config import compare_gates
from slns.errors import CFLViolation, ConfigError, NonFiniteVelocity, NonInvertible
from slns.flowmap import FlowEnsemble
from slns.grid import Field, PeriodicGrid
from slns.reference import (
    cole_hopf_burgers,
    taylor_green_2d,
    taylor_green_decay_rate,
)
from slns.solver import (
    SolverConfig,
    StochasticSolver,
    convergence_study,
    oracle_solution,
    relative_l2_error,
    run,
    spectral_resample,
)

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

    def test_divergent_initial_rejected(self):
        cfg = tg_config(initial="sine_mode", initial_params={"mode": 1})
        with pytest.raises(ConfigError):
            StochasticSolver(cfg)


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

    def test_worker_count_invariant_bits(self):
        # general path: non-reset window exercises the threaded loops
        kw = dict(t_end=0.02, reset_interval=100, realizations=8)
        r1 = run(tg_config(**kw, workers=1))
        r2 = run(tg_config(**kw, workers=4))
        assert np.array_equal(r1.velocity.values, r2.velocity.values)


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
        cfg = tg_config(dt=0.05, t_end=0.05, cfl_max=0.2)
        with pytest.raises(CFLViolation):
            run(cfg)

    def test_non_invertible_raised(self):
        cfg = tg_config(newton_max_iter=1, inversion_tol_factor=1e-14, t_end=5e-3)
        with pytest.raises(NonInvertible):
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
        cfg = tg_config(dt=0.05, t_end=0.25, cfl_max=1e-6, output_dir=str(out))
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


def _count_calls(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


class TestPicardPasses:
    def test_characteristic_function_built_once_per_step(self, monkeypatch):
        calls = _count_calls(monkeypatch, slns.flowmap, "shift_mean_multiplier")
        solver = StochasticSolver(burgers_config(reset_interval=1, picard_iters=2))
        solver.step()
        assert len(calls) == 1

    def test_tolerance_ends_loop_after_second_pass(self, monkeypatch):
        passes = _count_calls(monkeypatch, FlowEnsemble, "advanced")
        cfg = tg_config(n=32, realizations=8, picard_iters=5, picard_tol=1e30)
        StochasticSolver(cfg).step()
        assert len(passes) == 2

    def test_zero_tolerance_runs_every_pass(self, monkeypatch):
        passes = _count_calls(monkeypatch, FlowEnsemble, "advanced")
        cfg = tg_config(n=32, realizations=8, picard_iters=5, picard_tol=0.0)
        StochasticSolver(cfg).step()
        assert len(passes) == 5


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


class TestConvergenceStudies:
    def test_requires_three_levels(self):
        with pytest.raises(ConfigError):
            convergence_study(tg_config(), "dt", 2)

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
            assert relative_l2_error(oracle_solution(cfg, t, spectral=True), closed) <= 1e-12

    def test_generic_ns_oracle_runs(self):
        cfg = tg_config(
            initial="random_band_limited",
            initial_params={"kmax": 3, "seed": 1, "divergence_free": True},
        )
        ref = oracle_solution(cfg, 0.05)
        assert ref is not None and ref.components == 2


class TestForcedWindows:
    @pytest.mark.parametrize(
        "window",
        [
            dict(reset_interval=2),
            dict(forcing_quadrature="trapezoid"),
            dict(reset_interval=2, forcing_quadrature="trapezoid"),
        ],
    )
    def test_per_realization_forcing_labels(self, window):
        # moving maps turn the accumulated forcing into one label field per
        # realization; the steady state must still hold to the example's gate
        gate = compare_gates(EXAMPLES / "forced_steady.cfg")["rel_l2_max"]
        cfg = SolverConfig(
            n=32, realizations=64, t_end=0.1, forcing="steady_taylor_green", **window
        )
        res = run(cfg)
        assert relative_l2_error(res.velocity, oracle_solution(cfg, cfg.t_end)) <= gate


class TestCirculationDiagnostics:
    def test_rows_written(self, tmp_path):
        cfg = tg_config(
            t_end=0.02,
            realizations=8,
            circulation_curve={"kind": "circle", "center": [np.pi, np.pi], "radius": 1.0},
            circulation_realizations=2,
            output_dir=str(tmp_path / "c"),
        )
        res = run(cfg)
        csv = (tmp_path / "c" / "circulation.csv").read_text().splitlines()
        assert csv[0] == "time,realization,gamma_initial,gamma_transported,defect"
        assert len(csv) == 1 + 4 * 2  # 4 steps x 2 realizations
        defects = res.diagnostics.column("circulation_defect")
        assert np.all(defects < 1e-3)


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

    def test_linear_interpolation_runs(self):
        cfg = tg_config(t_end=0.02, interpolation="linear", realizations=16)
        res = run(cfg)
        u0 = taylor_green_2d(cfg.grid())
        # first order in space: coarse but sane
        assert (res.velocity - u0).max_norm() <= 0.1

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
