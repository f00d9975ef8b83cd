import numpy as np
import pytest

from conftest import alpha_general, composition_residual, fit_order, spde_residual, spline_builds
from slns import flowmap
from slns.errors import NonInvertible
from slns.flowmap import FlowEnsemble, _newton_step, invert_core
from slns.grid import PeriodicGrid
from slns.interp import FieldInterpolator
from slns.reference import random_band_limited, taylor_green_2d
from slns.solver import SolverConfig, StochasticSolver
from slns.spectral import gradient_values, workspace
from slns.wiener import WienerEnsemble

L = 2 * np.pi


def tg_drift(grid):
    return taylor_green_2d(grid).values


class TestInvertCore:
    def test_translation_inverts_exactly(self, grid2d):
        fe = FlowEnsemble(grid2d, 3)
        noise = np.array([[0.1, 0.2], [0.0, 0.0], [-0.3, 0.5]])
        fe2 = fe.advanced(np.zeros((2,) + grid2d.shape), 0.01, noise)
        fe2.invert()
        alpha = alpha_general(fe2)
        assert np.max(np.abs(alpha + noise[:, :, None, None])) <= 1e-14

    def test_1d_sine_map_vs_bisection(self):
        # N = 256 keeps the spline representation of the map below the
        # 1e-10 comparison threshold (the error scales like N^-4)
        grid = PeriodicGrid(1, 256, L)
        eps = 0.01 * L
        x = grid.axis()
        xi = (eps * np.sin(2 * np.pi * x / L))[None]
        beta = invert_core(grid, xi, tol=1e-12 * L)
        # independent per-point bisection oracle on a + eps sin(2 pi a / L) = x
        for i in range(0, 256, 29):
            target = x[i]
            lo, hi = target - 2 * eps, target + 2 * eps
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                if mid + eps * np.sin(2 * np.pi * mid / L) < target:
                    lo = mid
                else:
                    hi = mid
            a_oracle = 0.5 * (lo + hi)
            assert abs((x[i] + beta[0, i]) - a_oracle) <= 1e-10

    def test_noisy_step_with_zero_drift_exact(self, grid2d):
        fe = FlowEnsemble(grid2d, 2)
        noise = np.array([[0.25, -0.1], [0.05, 0.3]])
        fe2 = fe.advanced(np.zeros((2,) + grid2d.shape), 0.01, noise)
        fe2.invert()
        assert composition_residual(fe2) <= 1e-14

    def test_composition_residual_within_tol(self, grid2d):
        fe = FlowEnsemble(grid2d, 2)
        noise = np.array([[0.02, -0.01], [-0.015, 0.01]])
        fe2 = fe.advanced(tg_drift(grid2d), 5e-3, noise)
        fe2.invert()
        assert composition_residual(fe2) <= fe2.tol

    def test_inverse_consistency_both_ways(self, grid2d):
        fe = FlowEnsemble(grid2d, 1)
        fe2 = fe.advanced(tg_drift(grid2d), 8e-3, None)
        fe2.invert()
        # A(X(a)) - a at the label grid, via interpolated alpha
        alpha = alpha_general(fe2)[0]
        coords = grid2d.coordinates().reshape(2, -1)
        x_pts = coords + fe2.xi.reshape(2, -1)
        a_interp = FieldInterpolator(grid2d, alpha).at(x_pts)
        res = grid2d.wrap_centered(x_pts + a_interp - coords)
        assert np.max(np.abs(res)) <= 10 * fe2.tol

    def test_translation_equivariance(self, grid2d):
        # Inverting X + c directly (shift absorbed into the displacement
        # field) must agree with translating the inverse of X:
        # A'(x) = A(x - c) - c, up to interpolation error.
        dt = 5e-3
        grid = PeriodicGrid(2, 256, L)  # resolve the map below the 1e-10 gate
        c = np.array([0.37, -0.21])
        shifted = FlowEnsemble(grid, 1, tol=1e-12 * L)
        shifted = shifted.advanced(tg_drift(grid), dt, c[None, :])
        # absorb the uniform shift into the periodic displacement so the
        # Newton solve sees a genuinely different problem
        forced = FlowEnsemble(grid, 1, tol=1e-12 * L)
        forced.xi = shifted.xi + c[:, None, None]
        forced.invert()
        alpha_direct = forced.beta  # shifts are zero here: alpha == beta
        shifted.invert()
        alpha_structured = alpha_general(shifted)[0]
        assert np.max(np.abs(alpha_direct - alpha_structured)) <= 1e-10

    def test_non_invertible_raises(self):
        grid = PeriodicGrid(1, 64, L)
        x = grid.axis()
        # displacement with slope < -1 makes the map fold over
        xi = (-1.4 * (L / (2 * np.pi)) * np.sin(2 * np.pi * x / L))[None]
        with pytest.raises(NonInvertible):
            invert_core(grid, xi)

    @pytest.mark.parametrize(
        "dim, amp",
        # det(I + grad xi) = 1 - amp cos x (1D) and (1 - amp cos x)(1 - amp cos y)
        # (2D) turn negative; the fixed-point and Newton updates alone can
        # return a "converged" inverse of these maps with no error
        [(1, 1.1), (1, 1.4), (2, 1.2)],
    )
    def test_folded_map_raises(self, dim, amp):
        grid = PeriodicGrid(dim, 64 if dim == 1 else 32, L)
        xi = -amp * np.sin(grid.coordinates())
        with pytest.raises(NonInvertible, match="map folds"):
            invert_core(grid, xi)
        fe = FlowEnsemble(grid, 2)
        fe.xi = xi
        with pytest.raises(NonInvertible, match="map folds"):
            fe.invert()

    def test_taylor_start_residual_is_fourth_order(self, monkeypatch):
        # the start solves the quadratic Taylor model of xi at each node, so
        # its residual is the cubic remainder, O(|xi|^4); a first-order
        # guess gives O(|xi|^2), a wrong quadratic term O(|xi|^3)
        grid = PeriodicGrid(1, 64, L)
        x = grid.axis()
        starts = []
        real_at = FieldInterpolator.at

        def first_points(self, pts):
            starts.append(pts.copy())
            return real_at(self, pts)

        monkeypatch.setattr(FieldInterpolator, "at", first_points)
        epsilons = [1e-2, 2e-2, 4e-2, 8e-2]
        residuals = []
        for eps in epsilons:
            starts.clear()
            invert_core(grid, (eps * np.sin(x))[None])
            a = starts[0][0]  # the first evaluation is at the start
            residuals.append(np.max(np.abs(a + eps * np.sin(a) - x)))
        assert fit_order(1.0 / np.asarray(epsilons), residuals) == pytest.approx(4.0, abs=0.3)


def bisect_root(f, target, lo, hi, iters=60):
    """The root of an increasing scalar ``f(a) = target`` in ``[lo, hi]``."""
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if f(mid) < target else (lo, mid)
    return 0.5 * (lo + hi)


def solver_cores(monkeypatch, steps, **cfg):
    """The periodic cores that ``invert_core`` receives in the last of
    ``steps`` solver steps, with the solver's grid and tolerance."""
    seen = []
    real = flowmap.invert_core

    def spy(grid, xi, *args):
        seen[-1].append(xi.copy())
        return real(grid, xi, *args)

    monkeypatch.setattr(flowmap, "invert_core", spy)
    solver = StochasticSolver(SolverConfig(**cfg))
    for _ in range(steps):
        seen.append([])
        solver.step()
    monkeypatch.setattr(flowmap, "invert_core", real)
    return solver.grid, solver.flow.tol, seen[-1]


class TestFixedPointAndNewton:
    """The fixed-point path of ``invert_core`` against its Newton path
    (forced from the first update by requiring an impossible contraction)."""

    @pytest.mark.parametrize(
        "steps, cfg, agree",
        [
            # a shared core converges in one fixed-point update, and the final
            # free update lands next to Newton's quadratically overshooting inverse
            (2, dict(dim=2, n=64, realizations=16), 0.01),
            (3, dict(dim=2, n=32, realizations=4, reset_interval=4), 2),
            (
                3,
                dict(dim=3, n=16, realizations=2, reset_interval=4, dt=2e-2,
                     initial="abc_flow"),
                2,
            ),
        ],
        ids=["tg2d-shared", "tg2d-window-step3", "abc3d-window-step3"],
    )
    def test_solver_cores_agree(self, monkeypatch, steps, cfg, agree):
        grid, tol, cores = solver_cores(monkeypatch, steps, equation="navier_stokes",
                                        seed=3, t_end=1.0, **cfg)
        tol *= 1e-5  # the Taylor start alone meets the solver's tol: make both paths update
        assert cores and any(np.abs(xi).max() > 1e-3 for xi in cores)
        x = grid.coordinates().reshape(grid.dim, -1)
        fixed = [invert_core(grid, xi, tol=tol) for xi in cores]
        for xi, beta in zip(cores, fixed):  # the final update is not verified inside
            pts = x + beta.reshape(x.shape)
            res = grid.wrap_centered(pts + FieldInterpolator(grid, xi).at(pts) - x)
            assert np.max(np.abs(res)) <= tol
        monkeypatch.setattr(flowmap, "_FIXED_POINT_RATIO", 0.0)
        built = spline_builds(monkeypatch)
        newton = [invert_core(grid, xi, tol=tol) for xi in cores]
        assert [len(v) for v in built].count(grid.dim**2) == len(cores)
        for a, b in zip(fixed, newton):
            assert np.max(np.abs(a - b)) <= agree * tol

    @pytest.mark.parametrize(
        "steps, cfg",
        [
            (1, dict(dim=2, n=64, realizations=16)),
            (3, dict(dim=2, n=32, realizations=4, reset_interval=4)),
        ],
        ids=["tg2d-shared-step1", "tg2d-window-step3"],
    )
    def test_solver_cores_near_reference(self, monkeypatch, steps, cfg):
        # every node takes the final update, including those whose start
        # already met tol; without it they keep an error of up to tol (the
        # first core of a window, dt u0, has such nodes even from x - xi)
        grid, tol, cores = solver_cores(monkeypatch, steps, equation="navier_stokes",
                                        seed=3, t_end=1.0, **cfg)
        assert cores and tol == 1e-8 * L
        for xi in cores:
            reference = invert_core(grid, xi, tol=1e-13 * L)
            assert np.max(np.abs(invert_core(grid, xi) - reference)) <= 5e-9

    @pytest.mark.parametrize("amp", [0.4, 0.45, 0.48, 0.5])
    @pytest.mark.parametrize("dim", [1, 2])
    def test_half_contraction_converges_at_default_cap(self, dim, amp):
        # det >= 1 - amp > 0, but a fixed-point update only about halves the
        # residual near x = 0: more than the default 25 updates to reach
        # tol, so Newton must take over while updates are left
        grid = PeriodicGrid(dim, 512 if dim == 1 else 64, L)  # 1D: spline error < 1e-10
        tol = 1e-12 * L
        xi = -amp * np.sin(grid.coordinates())
        beta = invert_core(grid, xi, tol=tol)
        x = grid.coordinates().reshape(dim, -1)
        pts = x + beta.reshape(x.shape)
        res = grid.wrap_centered(pts + FieldInterpolator(grid, xi).at(pts) - x)
        assert np.max(np.abs(res)) <= tol
        if dim == 1:
            for y, b in zip(x[0, ::29], beta[0, ::29]):
                a = bisect_root(lambda a: a - amp * np.sin(a), y, y - 1.0, y + 1.0)
                assert abs((y + b) - a) <= 1e-10

    def test_nearly_singular_solver_cores_invert(self, monkeypatch):
        # a 1D Burgers window steepening into a shock: at step 58 the least
        # det(I + grad xi) of the cores is about 4e-4, so they do not fold.
        # On one of them damped Newton needs more than 3 step halvings per
        # update to lower its residual, or it stalls within MAX_UPDATES
        grid, tol, cores = solver_cores(
            monkeypatch, 58, equation="burgers", dim=1, n=128, nu=0.001, dt=0.02,
            t_end=1.6, realizations=4, reset_interval=1000, seed=3,
            initial="sine_mode", initial_params={"mode": 1, "amplitude": 1.0},
        )
        det = [1.0 + gradient_values(xi, workspace(grid))[0, 0] for xi in cores]
        assert 0.0 < min(v.min() for v in det) < 1e-3
        newton = []
        monkeypatch.setattr(flowmap, "_newton_step",
                            lambda jac, rhs: newton.append(1) or _newton_step(jac, rhs))
        x = grid.coordinates().reshape(1, -1)
        for xi in cores:
            pts = x + invert_core(grid, xi, tol=tol).reshape(x.shape)
            res = grid.wrap_centered(pts + FieldInterpolator(grid, xi).at(pts) - x)
            assert np.max(np.abs(res)) <= tol
        assert newton  # the cores reached the damped Newton fallback

    def test_fallback_when_contraction_is_weak(self, monkeypatch):
        # |d xi / dx| reaches 0.8: a fixed-point update cuts the residual
        # near x = 0 by 0.8 only, so Newton has to finish the inversion
        grid = PeriodicGrid(1, 512, L)  # spline error of the map below 1e-10
        x = grid.axis()
        xi = (-0.8 * np.sin(x))[None]
        tol = 1e-12 * L
        built = spline_builds(monkeypatch)
        beta = invert_core(grid, xi, tol=tol)
        assert [len(v) for v in built] == [1, 1]  # xi, then grad xi for Newton
        monkeypatch.setattr(flowmap, "_FIXED_POINT_RATIO", 0.0)
        assert np.max(np.abs(beta - invert_core(grid, xi, tol=tol))) <= 2 * tol
        for i in range(0, 512, 29):
            a = bisect_root(lambda a: a - 0.8 * np.sin(a), x[i], x[i] - 1.0, x[i] + 1.0)
            assert abs((x[i] + beta[0, i]) - a) <= 1e-10


class TestAdvance:
    def test_zero_drift_pure_translation(self, grid2d):
        fe = FlowEnsemble(grid2d, 4)
        w = WienerEnsemble(4, 2, seed=0)
        nu = 0.3
        noise = np.sqrt(2 * nu) * w.increments(0, 0.01)
        fe2 = fe.advanced(np.zeros((2,) + grid2d.shape), 0.01, noise)
        assert np.max(np.abs(fe2.xi)) == 0.0
        assert np.array_equal(fe2.shifts, noise)

    def test_constant_drift(self, grid2d):
        c = np.array([0.3, -0.2])
        drift = np.broadcast_to(c[:, None, None], (2,) + grid2d.shape).copy()
        fe = FlowEnsemble(grid2d, 1)
        cur = fe
        for _ in range(5):
            cur = cur.advanced(drift, 0.02, None)
        # X(a) = a + c t exactly
        assert np.max(np.abs(cur.xi - 0.1 * c[:, None, None])) <= 1e-13

    def test_one_euler_step_matches_rk4_to_dt2(self, grid2d):
        k = 2 * np.pi / grid2d.length

        def u_fn(p):
            return np.stack([np.cos(k * p[0]) * np.sin(k * p[1]), -np.sin(k * p[0]) * np.cos(k * p[1])])

        drift = tg_drift(grid2d)
        coords = grid2d.coordinates().reshape(2, -1)
        errs = []
        dts = [2e-3, 1e-3, 5e-4]
        for dt in dts:
            fe = FlowEnsemble(grid2d, 1).advanced(drift, dt, None)
            x_em = coords + fe.xi.reshape(2, -1)
            # RK4 on the analytic field (no grid error)
            p = coords
            k1 = u_fn(p)
            k2 = u_fn(p + dt / 2 * k1)
            k3 = u_fn(p + dt / 2 * k2)
            k4 = u_fn(p + dt * k3)
            x_rk4 = p + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
            errs.append(np.max(np.abs(x_em - x_rk4)))
        order = fit_order(1.0 / np.asarray(dts), errs)
        assert order >= 1.8  # per-step defect is O(dt^2)
        assert errs[0] <= 1.0 * dts[0] ** 2  # |u . grad u| / 2 sized constant


class TestOneStepMap:
    """``advanced`` builds the step's map ``y + phi(y)`` once on the nodes and
    composes it with every core by one spline evaluation of ``phi``."""

    M = 8

    def general_ensemble(self, grid, drift, dt):
        rng = np.random.default_rng(5)
        first, second = 0.3 * rng.standard_normal((2, self.M, 2))
        return FlowEnsemble(grid, self.M).advanced(drift, dt, first, stages=2), second

    def exact_increments(self, fe, drift, dt):
        """``dt S[u](X)`` and ``dt/2 (S[u](X) + S[u](X + dt S[u](X)))`` at
        every realization's shifted core points ``X``, as ``(M, 2) + shape``."""
        grid = fe.grid
        spline = FieldInterpolator(grid, drift)
        pts = fe.xi_general() + grid.coordinates() + fe.shifts[:, :, None, None]
        pts = np.moveaxis(pts, 1, 0).reshape(2, -1)
        k1 = spline.at(pts)
        k2 = spline.at(pts + dt * k1)
        return (np.moveaxis(v.reshape((2, self.M) + grid.shape), 0, 1)
                for v in (dt * k1, 0.5 * dt * (k1 + k2)))

    def test_two_stage_map_matches_composition(self):
        # phi's spline differs from the composed drift spline by the spline
        # error of the Heun correction dt (u . grad u) / 2, O(dt^2 h^4)
        dt = 1e-3
        errs = []
        for n in (32, 64):
            grid = PeriodicGrid(2, n, L)
            drift = random_band_limited(grid, kmax=3, seed=1, divergence_free=True).values
            fe, noise = self.general_ensemble(grid, drift, dt)
            new = fe.advanced(drift, dt, noise, stages=2)
            assert new.mode == "general"
            _, heun = self.exact_increments(fe, drift, dt)
            errs.append(np.max(np.abs(new.xi - fe.xi_general() - heun)))
            assert errs[-1] <= dt * grid.spacing**4 / 100
            assert np.array_equal(new.shifts, fe.shifts + noise)
        assert errs[0] >= 4 * errs[1]

    def test_one_stage_map_matches_drift_spline(self, grid2d):
        dt = 1e-2
        drift = random_band_limited(grid2d, kmax=3, seed=1, divergence_free=True).values
        fe, noise = self.general_ensemble(grid2d, drift, dt)
        new = fe.advanced(drift, dt, noise, stages=1)
        euler, _ = self.exact_increments(fe, drift, dt)
        bound = 16 * np.finfo(float).eps * dt * np.abs(drift).max()
        assert np.max(np.abs(new.xi - fe.xi_general() - euler)) <= bound

    def test_general_advance_evaluates_splines_at_n_plus_mn_points(self, monkeypatch, grid2d):
        # phi needs the drift at the N nodes' Euler points, then phi is
        # evaluated once at the M N core points: no second M N-point pass
        drift = tg_drift(grid2d)
        fe, noise = self.general_ensemble(grid2d, drift, 1e-2)
        points = []
        original = FieldInterpolator.at

        def counted(self, pts):
            points.append(int(np.prod(np.shape(pts)[1:])))
            return original(self, pts)

        monkeypatch.setattr(FieldInterpolator, "at", counted)
        assert fe.advanced(drift, 1e-2, noise, stages=2).mode == "general"
        nodes = grid2d.n**2
        assert points == [nodes, self.M * nodes]


class TestDetFromInversion:
    """``max_det_deviation`` as the inversion's fold checks leave it, against
    the cofactor formula on the spectral gradient of the whole ``xi``."""

    @staticmethod
    def from_scratch(fe):
        return float(np.max(np.abs(fe._jacobian_cofactors()[2] - 1.0)))

    @pytest.mark.parametrize("dim, n", [(1, 64), (2, 32), (3, 16)])
    def test_stored_value_is_the_cofactor_value(self, monkeypatch, dim, n):
        grid = PeriodicGrid(dim, n, L)
        drift = random_band_limited(grid, kmax=3, seed=dim, components=dim).values
        noise = 0.1 * np.random.default_rng(dim).standard_normal((4, dim))
        shared = FlowEnsemble(grid, 4).advanced(drift, 0.05, noise)
        general = shared.advanced(drift, 0.05, noise)
        for fe, mode in ((shared, "shared"), (general, "general")):
            assert fe.mode == mode
            expected = self.from_scratch(fe)
            fe.invert()
            with monkeypatch.context() as m:
                m.setattr(FlowEnsemble, "grad_x_core", None)  # no gradient is formed
                assert fe.max_det_deviation() == expected > 0.0

    def test_no_value_outlives_its_maps(self, grid2d):
        drift = random_band_limited(grid2d, kmax=3, seed=1, components=2).values
        fe = FlowEnsemble(grid2d, 2).advanced(drift, 0.05, None)
        fe.invert()
        inverted = fe.max_det_deviation()
        nxt = fe.advanced(drift, 0.05, None)
        assert self.from_scratch(nxt) != inverted
        with pytest.raises(RuntimeError, match="invert"):
            nxt.max_det_deviation()
        fe.reset()
        assert fe.max_det_deviation() == 0.0


class TestJacobian:
    def test_identity_det_one(self, grid2d):
        fe = FlowEnsemble(grid2d, 1)
        assert fe.max_det_deviation() == 0.0

    def test_divergence_free_det_one(self, grid2d):
        fe = FlowEnsemble(grid2d, 1).advanced(tg_drift(grid2d), 1e-2, None)
        assert np.max(np.abs(fe._jacobian_cofactors()[2] - 1.0)) <= 1e-3

    def test_pointwise_exponential_identity(self):
        # det(grad X_t)(a) = exp(int_0^t div u(X_s(a)) ds) along trajectories,
        # checked for 1D u = sin(x) against an RK4 oracle for (X, integral).
        grid = PeriodicGrid(1, 128, L)
        x = grid.axis()
        drift = np.sin(x)[None]
        dt, steps = 1e-3, 20
        fe = FlowEnsemble(grid, 1)
        for _ in range(steps):
            fe = fe.advanced(drift, dt, None)
        det = fe._jacobian_cofactors()[2]

        def rhs(state):
            return np.stack([np.sin(state[0]), np.cos(state[0])])

        st = np.stack([x, np.zeros_like(x)])
        for _ in range(steps):
            k1 = rhs(st)
            k2 = rhs(st + dt / 2 * k1)
            k3 = rhs(st + dt / 2 * k2)
            k4 = rhs(st + dt * k3)
            st = st + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        det_oracle = np.exp(st[1])
        # Euler map error is O(dt) over the window
        assert np.max(np.abs(det - det_oracle)) <= 30 * dt

    def test_condition_estimate_near_identity(self, grid2d):
        fe = FlowEnsemble(grid2d, 1).advanced(tg_drift(grid2d), 1e-3, None)
        cond = fe.max_condition_estimate()
        assert 1.9 <= cond <= 2.2  # Frobenius cond of near-identity 2x2 is ~2


class TestCofactorTable:
    """Determinant, Newton step and condition estimate from the cofactor
    table against ``np.linalg`` on random near-identity matrix fields."""

    @staticmethod
    def near_identity(rng, lead, d):
        eye = np.eye(d).reshape((d, d) + (1,) * len(lead))
        return eye + 0.3 * rng.standard_normal((d, d) + lead)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_newton_step_matches_solve(self, d):
        rng = np.random.default_rng(d)
        jac = self.near_identity(rng, (500,), d)
        rhs = rng.standard_normal((d, 500))
        ref = np.linalg.solve(np.moveaxis(jac, -1, 0), rhs.T[..., None])[..., 0].T
        assert np.max(np.abs(_newton_step(jac, rhs) - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_det_and_condition_match_linalg(self, d, monkeypatch):
        rng = np.random.default_rng(10 + d)
        grid = PeriodicGrid(d, 8, L)
        fe = FlowEnsemble(grid, 3)
        # general layout (M, d, d) + shape, as grad_x_core returns it
        g = np.moveaxis(self.near_identity(rng, (3,) + grid.shape, d), 2, 0)
        monkeypatch.setattr(fe, "grad_x_core", lambda: g)
        mats = np.moveaxis(g, (1, 2), (-2, -1))
        det_ref = np.linalg.det(mats)
        det = fe._jacobian_cofactors()[2]
        assert np.max(np.abs(det / det_ref - 1.0)) <= 1e-12
        assert np.max(np.abs(det - 1.0)) == pytest.approx(np.max(np.abs(det_ref - 1.0)), rel=1e-12)
        fro = np.linalg.norm(mats, axis=(-2, -1))
        cond_ref = np.max(fro * np.linalg.norm(np.linalg.inv(mats), axis=(-2, -1)))
        assert fe.max_condition_estimate() == pytest.approx(cond_ref, rel=1e-12)


class TestTranslatedBackend:
    def test_zero_noise_matches_deterministic_rk2(self, grid2d):
        drift = tg_drift(grid2d)
        a = FlowEnsemble(grid2d, 1).advanced(drift, 1e-2, None, stages=2)
        b = FlowEnsemble(grid2d, 1).advanced(drift, 1e-2, None, stages=2)
        assert np.array_equal(a.xi, b.xi)

    def test_zero_drift_both_backends_exact(self, grid2d):
        noise = np.array([[0.2, -0.3]])
        zero = np.zeros((2,) + grid2d.shape)
        em = FlowEnsemble(grid2d, 1).advanced(zero, 0.01, noise, stages=1)
        rk = FlowEnsemble(grid2d, 1).advanced(zero, 0.01, noise, stages=2)
        assert np.array_equal(em.xi, rk.xi)
        assert np.array_equal(em.shifts, rk.shifts)

    def test_backends_agree_at_order_dt(self, grid2d):
        drift = tg_drift(grid2d)
        diffs = []
        dts = [4e-3, 2e-3, 1e-3]
        for lvl, dt in enumerate(dts):
            wl = WienerEnsemble(6, 2, seed=4, substeps=4 // 2**lvl)
            noise = np.sqrt(2 * 0.05) * wl.increments(0, dt)
            em = FlowEnsemble(grid2d, 6).advanced(drift, dt, noise, stages=1)
            rk = FlowEnsemble(grid2d, 6).advanced(drift, dt, noise, stages=2)
            diffs.append(np.max(np.abs(em.xi - rk.xi)))
        assert fit_order(1.0 / np.asarray(dts), diffs) >= 1.0


class TestSPDEResidual:
    def test_zero_drift_zero_noise_exact(self, grid2d):
        fe = FlowEnsemble(grid2d, 2)
        zero = np.zeros((2,) + grid2d.shape)
        f1 = fe.advanced(zero, 0.01, None)
        f1.invert()
        f2 = f1.advanced(zero, 0.01, None)
        f2.invert()
        res = spde_residual(
            grid2d, alpha_general(f1), alpha_general(f2), zero, np.zeros((2, 2)), 0.0, 0.01
        )
        assert np.max(res) == 0.0

    def test_pure_noise_cancels(self, grid2d):
        nu = 0.2
        zero = np.zeros((2,) + grid2d.shape)
        w = WienerEnsemble(3, 2, seed=6)
        fe = FlowEnsemble(grid2d, 3)
        n1 = np.sqrt(2 * nu) * w.increments(0, 0.01)
        f1 = fe.advanced(zero, 0.01, n1)
        f1.invert()
        n2 = np.sqrt(2 * nu) * w.increments(1, 0.01)
        f2 = f1.advanced(zero, 0.01, n2)
        f2.invert()
        res = spde_residual(
            grid2d, alpha_general(f1), alpha_general(f2), zero, n2, nu, 0.01
        )
        assert np.max(res) <= 1e-12

    def test_taylor_green_residual_order(self, grid2d):
        # residual of the one-step update shrinks at observed order >= 0.5
        nu = 0.05
        drift = tg_drift(grid2d)
        means = []
        dts = [8e-3, 4e-3, 2e-3]
        for lvl, dt in enumerate(dts):
            # the same Brownian paths at each level (common random numbers)
            wl = WienerEnsemble(16, 2, seed=11, substeps=4 // 2**lvl)
            fe = FlowEnsemble(grid2d, 16)
            # two steps to a fixed state, residual over the second
            n_steps = 2**lvl  # reach common time with this dt
            cur = fe
            for j in range(n_steps):
                cur = cur.advanced(drift, dt, np.sqrt(2 * nu) * wl.increments(j, dt))
            cur.invert()
            noise = np.sqrt(2 * nu) * wl.increments(n_steps, dt)
            nxt = cur.advanced(drift, dt, noise)
            nxt.invert()
            res = spde_residual(
                grid2d, alpha_general(cur), alpha_general(nxt), drift, noise, nu, dt
            )
            means.append(res.mean())
        assert fit_order(1.0 / np.asarray(dts), means) >= 0.5
