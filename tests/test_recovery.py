import copy

import numpy as np
import pytest

from conftest import (
    alpha_general,
    composition_residual,
    fit_order,
    taylor_green_2d_vorticity,
)
import slns.recovery
from slns.flowmap import FlowEnsemble
from slns.grid import Field, PeriodicGrid
from slns.interp import FieldInterpolator
from slns.recovery import (
    burgers_velocity,
    circulation,
    forcing_increment,
    probe_spread,
    realization_field,
    stochastic_velocity,
    transported_vorticity_2d,
    transported_vorticity_3d,
    weber_velocity,
)
from slns.reference import abc_flow, random_band_limited, taylor_green_2d
from slns.solver import SolverConfig, StochasticSolver
from slns.spectral import (
    SpectralWorkspace,
    curl_values,
    divergence_values,
    gradient_values,
    helmholtz_values,
    project_values,
    workspace,
)
from slns.wiener import WienerEnsemble

L = 2 * np.pi


def noisy_flow(grid, m, nu, dt, seed=0, drift=None, steps=1):
    """Advance an ensemble a few steps with frozen drift (no reset)."""
    w = WienerEnsemble(m, grid.dim, seed)
    fe = FlowEnsemble(grid, m)
    zero = np.zeros((grid.dim,) + grid.shape)
    for j in range(steps):
        noise = np.sqrt(2 * nu) * w.increments(j, dt) if nu > 0 else None
        fe = fe.advanced(drift if drift is not None else zero, dt, noise)
    fe.invert()
    return fe


class TestWeberVelocity:
    def test_identity_map_returns_projected_initial(self, grid2d):
        u0 = taylor_green_2d(grid2d)
        fe = FlowEnsemble(grid2d, 3)
        fe.invert()
        out = weber_velocity(fe, u0)
        assert np.max(np.abs(out - u0.values)) <= 1e-12

    def test_uniform_translation_shifts_initial(self, grid2d):
        # u == 0 drift: A = x - c, grad A = I, so u(x) = u0(x - c)
        u0 = taylor_green_2d(grid2d)
        fe = noisy_flow(grid2d, 1, nu=0.1, dt=0.01, seed=5)
        c = fe.shifts[0]
        out = weber_velocity(fe, u0)
        x, y = grid2d.coordinates()
        exact = np.stack(
            [np.cos(x - c[0]) * np.sin(y - c[1]), -np.sin(x - c[0]) * np.cos(y - c[1])]
        )
        assert np.max(np.abs(out - exact)) <= 1e-10

    def test_output_divergence_free_per_realization(self, grid2d):
        u0 = taylor_green_2d(grid2d)
        fe = noisy_flow(grid2d, 4, nu=0.05, dt=5e-3, drift=u0.values, steps=2)
        for m in range(4):
            ut = stochastic_velocity(fe, u0.values, m)
            div = np.max(np.abs(divergence_values(ut, workspace(grid2d))))
            assert div <= 1e-10 * max(np.max(np.abs(ut)), 1.0)

    def test_expectation_linearity(self, grid2d):
        u0 = taylor_green_2d(grid2d)
        fe = noisy_flow(grid2d, 6, nu=0.05, dt=5e-3, drift=u0.values, steps=2)
        mean = weber_velocity(fe, u0.values)
        singles = np.stack(
            [realization_field(fe, u0.values, m, weber=True, project=True) for m in range(6)]
        )
        assert np.max(np.abs(mean - singles.mean(axis=0))) <= 1e-13 * max(
            1.0, np.max(np.abs(mean))
        )

    def test_per_realization_labels(self, grid2d):
        # forcing accumulated on moving maps gives (M, d) + shape labels, on
        # one shared core (one step) or one core per realization (two)
        u0 = taylor_green_2d(grid2d)
        labels = np.stack([u0.values, 2 * u0.values, -u0.values])
        for steps, mode in ((1, "shared"), (2, "general")):
            fe = noisy_flow(grid2d, 3, nu=0.05, dt=5e-3, drift=u0.values, steps=steps)
            assert fe.mode == mode
            out = weber_velocity(fe, labels)
            singles = [stochastic_velocity(fe, labels[m], m) for m in range(3)]
            assert np.max(np.abs(out - np.mean(singles, axis=0))) <= 1e-13


class TestBurgersVelocity:
    def test_identity_map(self, grid1d):
        u0 = Field.from_callable(grid1d, lambda c: np.sin(c[0]))
        fe = FlowEnsemble(grid1d, 2)
        fe.invert()
        assert np.max(np.abs(burgers_velocity(fe, u0) - u0.values)) <= 1e-13

    def test_pure_noise_heat_kernel(self, grid1d):
        # E u0(x - sqrt(2 nu) W_t) solves the heat equation; single mode
        # decays by exp(-nu k^2 t)
        nu, dt, steps, m = 0.1, 5e-3, 10, 20000
        u0 = Field.from_callable(grid1d, lambda c: np.sin(c[0]))
        fe = noisy_flow(grid1d, m, nu, dt, seed=42, steps=steps)
        out = burgers_velocity(fe, u0)
        t = dt * steps
        exact = np.exp(-nu * t) * u0.values  # exp(-nu |k|^2 t), |k| = 1
        tol = 3.0 * np.max(np.abs(u0.values)) / np.sqrt(m)
        assert np.max(np.abs(out - exact)) <= tol


class TestVorticity:
    def test_2d_identity(self, grid2d):
        w0 = taylor_green_2d_vorticity(grid2d)
        fe = FlowEnsemble(grid2d, 2)
        fe.invert()
        assert np.max(np.abs(transported_vorticity_2d(fe, w0) - w0.values)) <= 1e-13

    def test_2d_heat_kernel(self, grid2d):
        nu, dt, steps, m = 0.05, 5e-3, 8, 5000
        w0 = Field.from_callable(grid2d, lambda c: np.sin(c[0]))
        fe = noisy_flow(grid2d, m, nu, dt, seed=3, steps=steps)
        out = transported_vorticity_2d(fe, w0)
        exact = np.exp(-nu * dt * steps) * w0.values  # |k| = 1
        assert np.max(np.abs(out - exact)) <= 3.0 / np.sqrt(m)

    def test_2d_max_principle(self, grid2d):
        w0 = taylor_green_2d_vorticity(grid2d)
        u0 = taylor_green_2d(grid2d)
        fe = noisy_flow(grid2d, 64, nu=0.05, dt=5e-3, drift=u0.values, steps=3)
        out = transported_vorticity_2d(fe, w0)
        osc = w0.values.max() - w0.values.min()
        assert out.max() <= w0.values.max() + 1e-3 * osc
        assert out.min() >= w0.values.min() - 1e-3 * osc

    def test_3d_identity(self, grid3d):
        from slns.reference import taylor_green_3d

        u0 = taylor_green_3d(grid3d)
        w0 = curl_values(u0.values, workspace(grid3d))
        fe = FlowEnsemble(grid3d, 2)
        fe.invert()
        assert np.max(np.abs(transported_vorticity_3d(fe, w0) - w0)) <= 1e-12

    def test_3d_matches_curl_of_weber(self, grid3d):
        from slns.reference import taylor_green_3d

        u0 = taylor_green_3d(grid3d)
        w0 = curl_values(u0.values, workspace(grid3d))
        fe = noisy_flow(grid3d, 400, nu=0.05, dt=5e-3, seed=1, drift=u0.values)
        om_mc = transported_vorticity_3d(fe, w0)
        u = weber_velocity(fe, u0.values)
        om_curl = curl_values(u, workspace(grid3d))
        rel = np.sqrt(np.sum((om_mc - om_curl) ** 2) / np.sum(om_curl**2))
        assert rel <= 5e-2

    def test_3d_cauchy_vs_ode_oracle(self):
        # nu = 0, one realization: the grid Cauchy transport must match a
        # pointwise RK4 integration of (X, grad X) at isolated points
        grid = PeriodicGrid(3, 64, L)

        def u_fn(p):
            x, y, z = p
            return np.array([np.sin(z) + np.cos(y), np.sin(x) + np.cos(z), np.sin(y) + np.cos(x)])

        def grad_u(p):
            x, y, z = p
            return np.array(
                [
                    [0.0, -np.sin(y), np.cos(z)],
                    [np.cos(x), 0.0, -np.sin(z)],
                    [-np.sin(x), np.cos(y), 0.0],
                ]
            )

        from slns.reference import abc_flow
        from slns.interp import FieldInterpolator

        u0 = abc_flow(grid)
        w0 = curl_values(u0.values, workspace(grid))  # equals u0 (Beltrami)
        pts = np.random.default_rng(5).uniform(0, L, (3, 3))
        errs = []
        dts = [2e-2, 1e-2]
        for dt in dts:
            fe = FlowEnsemble(grid, 1).advanced(u0.values, dt, None)
            fe.invert()
            om = transported_vorticity_3d(fe, w0)
            interp = FieldInterpolator(grid, om)
            worst = 0.0
            for i in range(pts.shape[1]):
                a0 = pts[:, i]
                st_x, st_j = a0.copy(), np.eye(3)

                def rhs(xv, jv):
                    return u_fn(xv), grad_u(xv) @ jv

                k1x, k1j = rhs(st_x, st_j)
                k2x, k2j = rhs(st_x + dt / 2 * k1x, st_j + dt / 2 * k1j)
                k3x, k3j = rhs(st_x + dt / 2 * k2x, st_j + dt / 2 * k2j)
                k4x, k4j = rhs(st_x + dt * k3x, st_j + dt * k3j)
                xf = st_x + dt / 6 * (k1x + 2 * k2x + 2 * k3x + k4x)
                jf = st_j + dt / 6 * (k1j + 2 * k2j + 2 * k3j + k4j)
                om_exact = jf @ u_fn(a0)
                om_num = interp.at(xf[:, None])[:, 0]
                worst = max(worst, np.max(np.abs(om_num - om_exact)))
            errs.append(worst)
        # first-order map: per-step defect O(dt^2)
        assert errs[0] / errs[1] >= 3.0
        assert errs[0] <= 4.0 * dts[0] ** 2


class TestFilteredPair:
    # the alpha model: momentum v by the Weber formula, transport velocity
    # u by the inverse Helmholtz filter, as the solver composes them
    def test_alpha_zero_is_identity(self, grid2d):
        u0 = taylor_green_2d(grid2d)
        fe = noisy_flow(grid2d, 4, nu=0.05, dt=5e-3, seed=2, drift=u0.values)
        v = weber_velocity(fe, u0.values)
        assert np.array_equal(helmholtz_values(v, 0.0, workspace(grid2d)), v)

    def test_identity_map_filter_per_mode(self, grid2d):
        u0 = taylor_green_2d(grid2d)
        fe = FlowEnsemble(grid2d, 1)
        fe.invert()
        alpha = 0.5
        v = weber_velocity(fe, u0.values)
        u = helmholtz_values(v, alpha, workspace(grid2d))
        assert np.max(np.abs(v - u0.values)) <= 1e-12
        # Taylor-Green is a |k|^2 = 2 eigenmode: u = v / (1 + 2 alpha^2)
        assert np.max(np.abs(u - v / (1 + 2 * alpha**2))) <= 1e-12

    def test_one_step_fourier_multiplier_consistency(self, grid2d):
        u0 = taylor_green_2d(grid2d)
        fe = noisy_flow(grid2d, 8, nu=0.05, dt=5e-3, seed=7, drift=u0.values)
        alpha = 0.5
        ws = workspace(grid2d)
        v = weber_velocity(fe, u0.values)
        u = helmholtz_values(v, alpha, ws)
        forward = u - alpha**2 * ws.ifft(-ws.k2_full * ws.fft(u))
        assert np.max(np.abs(forward - v)) <= 1e-10


class TestForcing:
    def test_zero_forcing_keeps_labels(self, grid2d):
        fe = noisy_flow(grid2d, 2, nu=0.05, dt=5e-3, seed=1, drift=taylor_green_2d(grid2d).values)

        def f(points, t):
            return np.zeros((2,) + points.shape[1:])

        # a zero force adds nothing to the labels, at the identity and on moving maps
        for flow in (FlowEnsemble(grid2d, 2), fe):
            for t in (0.0, 0.005, 0.01):
                assert not forcing_increment(flow, f, t, weber=True).any()

    def test_frozen_identity_constant_force(self, grid2d):
        u0 = taylor_green_2d(grid2d)
        labels = u0.values
        fe = FlowEnsemble(grid2d, 2)  # X = I frozen
        cvec = np.array([0.3, -0.1])

        def f(points, t):
            return np.broadcast_to(cvec[:, None, None], (2,) + points.shape[1:])

        dt, steps = 0.02, 7
        for j in range(steps):
            inc = forcing_increment(fe, f, j * dt, weber=True)
            assert inc.shape == (2,) + grid2d.shape  # shared while X = I
            labels = labels + dt * inc
        exact = u0.values + steps * dt * cvec[:, None, None]
        assert np.max(np.abs(labels - exact)) <= 1e-13

    def test_moving_maps_promote_per_realization(self, grid2d):
        u0 = taylor_green_2d(grid2d)
        fe = noisy_flow(grid2d, 3, nu=0.05, dt=5e-3, seed=9, drift=u0.values)

        def f(points, t):
            return np.stack([np.sin(points[0]), np.cos(points[1])])

        assert forcing_increment(fe, f, 0.0, weber=True).shape == (3, 2) + grid2d.shape

    def test_plain_increment_is_the_force_at_the_maps(self, grid2d):
        # Burgers transports u itself: its label increment is f(X), with
        # X_m = I + xi + s_m, not the Weber form (grad^T X) f(X)
        fe = noisy_flow(grid2d, 3, nu=0.05, dt=5e-3, seed=9, drift=taylor_green_2d(grid2d).values)

        def f(points, t):
            return np.stack([np.sin(points[0]), np.cos(points[1])])

        pts = fe.xi_general() + grid2d.coordinates() + fe.shifts[:, :, None, None]
        expected = np.stack([f(p, 0.0) for p in pts])
        assert np.array_equal(forcing_increment(fe, f, 0.0, weber=False), expected)


class TestCirculation:
    def circle(self, center, radius):
        def curve(s):
            ang = 2 * np.pi * np.asarray(s)
            return np.stack([center[0] + radius * np.cos(ang), center[1] + radius * np.sin(ang)])

        return curve

    def test_gradient_field_no_circulation(self, grid2d):
        q = random_band_limited(grid2d, kmax=3, seed=13)
        from slns.spectral import gradient_values

        gq = gradient_values(q.values[0], workspace(grid2d))
        fe = FlowEnsemble(grid2d, 1)
        fe.invert()
        res = circulation(
            grid2d, gq, gq, fe.xi, fe.shifts[0], self.circle((np.pi, np.pi), 1.0)
        )
        # zero up to the spline representation of the gradient field
        scale = np.max(np.abs(gq))
        assert abs(res["gamma_initial"]) <= 3e-7 * scale
        assert res["defect"] <= 3e-7 * scale

    def test_identity_map_zero_defect(self, grid2d):
        u0 = taylor_green_2d(grid2d)
        fe = FlowEnsemble(grid2d, 1)
        fe.invert()
        ut = stochastic_velocity(fe, u0.values, 0)
        res = circulation(
            grid2d, u0.values, ut, fe.xi, fe.shifts[0], self.circle((np.pi, np.pi), 1.0)
        )
        assert res["defect"] <= 1e-12
        assert res["gamma_initial"] == pytest.approx(-4.8379669652720, rel=1e-6)

    def test_open_curve_rejected(self, grid2d):
        u0 = taylor_green_2d(grid2d)
        fe = FlowEnsemble(grid2d, 1)
        fe.invert()

        def open_curve(s):
            s = np.asarray(s)
            return np.stack([np.pi + s, np.pi + 0 * s])

        with pytest.raises(ValueError):
            circulation(grid2d, u0.values, u0.values, fe.xi, fe.shifts[0], open_curve)

    def test_defect_shrinks_under_refinement(self):
        u0_amp = 1.0
        defects = []
        for n, dt in ((32, 2e-2), (64, 1e-2), (128, 5e-3)):
            grid = PeriodicGrid(2, n, L)
            u0 = taylor_green_2d(grid, u0_amp)
            fe = noisy_flow(grid, 1, nu=0.05, dt=dt, seed=2, drift=u0.values)
            ut = stochastic_velocity(fe, u0.values, 0)
            res = circulation(
                grid, u0.values, ut, fe.xi, fe.shifts[0], self.circle((np.pi, np.pi), 1.0)
            )
            defects.append(res["defect"])
        assert fit_order([32, 64, 128], defects) >= 1.0


class TestRepresentationsAgree:
    """The shared path (one core times the characteristic function of the
    shifts) and the per-realization path (a mean over M maps) evaluate the
    same formulas. Zero and whole-cell shifts keep every translate on the
    grid, so the two paths differ only by rounding; arbitrary shifts would
    add the interpolation error of the per-realization path."""

    @staticmethod
    def pair(grid, shift_kind):
        m = 6
        u0 = random_band_limited(grid, kmax=3, seed=4, components=grid.dim)
        shared = noisy_flow(grid, m, nu=0.05, dt=2e-2, seed=8, drift=u0.values)
        assert shared.mode == "shared"
        cells = np.random.default_rng(1).integers(-grid.n, grid.n, (m, grid.dim))
        shared.shifts = cells * grid.spacing if shift_kind == "cells" else 0.0 * cells
        general = copy.copy(shared)
        general.xi = np.broadcast_to(shared.xi, (m,) + shared.xi.shape).copy()
        general.beta = np.broadcast_to(shared.beta, (m,) + shared.beta.shape).copy()
        general.chi = None
        general._integrands = {}
        return u0.values, shared, general

    @staticmethod
    def assert_close(a, b):
        assert a.shape == b.shape
        assert np.max(np.abs(a - b)) <= 1e-13 * max(1.0, np.max(np.abs(a)))

    @pytest.mark.parametrize("dim,n", [(2, 32), (3, 16)])
    @pytest.mark.parametrize("shift_kind", ["zero", "cells"])
    def test_formulas_agree(self, dim, n, shift_kind):
        grid = PeriodicGrid(dim, n, L)
        u0, shared, general = self.pair(grid, shift_kind)
        w0 = curl_values(u0, workspace(grid))
        probes = np.tile(np.array([0.7, 2.9, 5.1]), (dim, 1))
        self.assert_close(burgers_velocity(shared, u0), burgers_velocity(general, u0))
        self.assert_close(weber_velocity(shared, u0), weber_velocity(general, u0))
        self.assert_close(
            probe_spread(shared, u0, probes, weber=True),
            probe_spread(general, u0, probes, weber=True),
        )
        if dim == 2:
            a, b = transported_vorticity_2d(shared, w0[None]), transported_vorticity_2d(general, w0[None])
        else:
            a, b = transported_vorticity_3d(shared, w0), transported_vorticity_3d(general, w0)
        self.assert_close(a, b)

    @pytest.mark.parametrize("dim,n", [(2, 32), (3, 16)])
    def test_flow_operations_agree(self, dim, n):
        grid = PeriodicGrid(dim, n, L)
        u0, shared, general = self.pair(grid, "cells")
        assert general.mode == "general"  # derived from the broadcast xi
        self.assert_close(alpha_general(shared), alpha_general(general))
        g = shared.grad_x_core()
        self.assert_close(np.broadcast_to(g, (shared.m,) + g.shape), general.grad_x_core())
        det, det_general = shared._jacobian_cofactors()[2], general._jacobian_cofactors()[2]
        self.assert_close(np.broadcast_to(det, det_general.shape), det_general)
        for op in (FlowEnsemble.max_det_deviation, FlowEnsemble.max_condition_estimate,
                   composition_residual):
            a, b = op(shared), op(general)
            assert abs(a - b) <= 1e-13 * max(1.0, abs(a)), op.__name__
        for flow in (shared, general):
            flow.invert()
        self.assert_close(np.broadcast_to(shared.beta, general.beta.shape), general.beta)
        # with zero shifts a shared flow keeps one core; the general copy
        # advances every map at the same points
        for flow in (shared, general):
            flow.shifts = np.zeros_like(flow.shifts)
        a = shared.advanced(u0, 0.01, None, stages=2)
        b = general.advanced(u0, 0.01, None, stages=2)
        assert a.mode == "shared"
        self.assert_close(a.xi_general(), b.xi)


class TestAveragingPaths:
    """A window's mean is one phase sum over the core-frame integrands;
    ``realization_field`` translates and projects each integrand on its own.
    Both take their phases from ``spectral.shift_phases``, so this checks
    the order of averaging and projection; ``test_spectral`` checks the
    phases against direct ``np.exp``. Mid-window every realization has its
    own map."""

    @pytest.mark.parametrize(
        "kw, steps",
        [
            (dict(dim=2, n=32, realizations=8, initial="taylor_green_2d", dt=5e-3), 3),
            (dict(dim=3, n=16, realizations=4, initial="abc_flow", dt=1e-2), 2),
        ],
    )
    def test_mean_equals_mean_of_realizations(self, kw, steps):
        solver = StochasticSolver(SolverConfig(reset_interval=4, t_end=0.1, seed=5, **kw))
        for _ in range(steps):
            solver.step()
        flow = solver.flow
        assert flow.mode == "general" and flow.shifts.any()
        cases = [(weber_velocity, solver.labels_u, True, True)]
        if flow.grid.dim == 2:
            cases.append((transported_vorticity_2d, solver.labels_omega, False, False))
        for recover, label, weber, project in cases:
            mean = recover(flow, label)
            singles = [realization_field(flow, label, m, weber, project) for m in range(flow.m)]
            ref = np.mean(singles, axis=0)
            assert np.max(np.abs(mean - ref)) <= 1e-12 * np.max(np.abs(ref)), recover.__name__


class TestIntegrandReuse:
    def test_diagnostics_read_the_recovery_integrand(self, grid2d, monkeypatch):
        u0 = taylor_green_2d(grid2d)
        fe = noisy_flow(grid2d, 4, nu=0.05, dt=5e-3, drift=u0.values, steps=2)
        assert fe.mode == "general"
        u = weber_velocity(fe, u0.values)
        calls = []
        monkeypatch.setattr(fe, "_require_beta", lambda: calls.append(1))  # a rebuild reads beta
        probes = np.array([[1.0, 2.0], [3.0, 4.0]])
        spread = probe_spread(fe, u0.values, probes, weber=True)
        singles = np.stack(
            [realization_field(fe, u0.values, m, weber=True, project=True) for m in range(4)]
        )
        assert not calls
        assert spread.shape == (4, 2, 2)
        assert np.max(np.abs(u - singles.mean(axis=0))) <= 1e-13

    @pytest.mark.parametrize("steps", [1, 2])  # shared core, then one map per realization
    def test_probe_splines_reuse_the_recovery_transform(self, grid2d, monkeypatch, steps):
        # the probe splines are built from the integrand's transform that the
        # recovery took, bit for bit the splines built from scratch
        u0 = taylor_green_2d(grid2d)
        fe = noisy_flow(grid2d, 4, nu=0.05, dt=5e-3, drift=u0.values, steps=steps)
        weber_velocity(fe, u0.values)
        probes = np.array([[1.0, 2.0], [3.0, 4.0]])
        vals = slns.recovery._integrand(fe, u0.values, weber=True)[0]
        pts = probes[None] - fe.shifts[:, :, None]
        per_m = np.broadcast_to(vals, (4,) + vals.shape[-3:])
        scratch = np.stack([FieldInterpolator(grid2d, v).at(p) for v, p in zip(per_m, pts)])
        transforms = []
        real_fft = SpectralWorkspace.fft
        monkeypatch.setattr(SpectralWorkspace, "fft", lambda ws, v: transforms.append(1) or real_fft(ws, v))
        spread = probe_spread(fe, u0.values, probes, weber=True)
        assert not transforms
        assert np.array_equal(spread, scratch)

    @pytest.mark.parametrize("steps", [1, 2])  # shared core, then one map per realization
    def test_zero_shifts_average_the_core_frame_integrand(self, grid2d, steps):
        # with every shift zero the characteristic function is exactly 1, so
        # the recovery is the plain mean of the core-frame integrands
        u0 = taylor_green_2d(grid2d)
        fe = noisy_flow(grid2d, 3, nu=0.05, dt=5e-3, drift=u0.values, steps=steps)
        fe.shifts = np.zeros_like(fe.shifts)
        ws = workspace(grid2d)
        for recover, weber in ((burgers_velocity, False), (weber_velocity, True)):
            plain = slns.recovery._integrand(fe, u0.values, weber)[0]
            plain = plain.mean(axis=0) if steps == 2 else plain
            expected = project_values(plain, ws) if weber else plain
            assert np.max(np.abs(recover(fe, u0.values) - expected)) <= 1e-14, recover.__name__

    def test_results_do_not_alias_the_cache(self, grid2d):
        u0 = taylor_green_2d(grid2d)
        for steps in (1, 2):  # shared core, then one map per realization
            fe = noisy_flow(grid2d, 3, nu=0.05, dt=5e-3, drift=u0.values, steps=steps)
            fe.shifts = np.zeros_like(fe.shifts)
            for recover in (
                lambda: realization_field(fe, u0.values, 0, weber=False, project=False),
                lambda: burgers_velocity(fe, u0.values),
            ):
                first = recover()
                before = first.copy()
                first += 1.0
                assert np.array_equal(recover(), before)
