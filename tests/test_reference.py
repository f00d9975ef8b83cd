import warnings

import numpy as np
import pytest

from conftest import finite_difference_burgers, fit_order, taylor_green_2d_vorticity
from slns.grid import Field
from slns.reference import (
    abc_flow,
    analytic_field,
    cole_hopf_burgers,
    random_band_limited,
    spectral_ns_run,
    taylor_green_2d,
    taylor_green_3d,
    taylor_green_decay_rate,
    taylor_green_energy,
)
from slns.spectral import curl, divergence

L = 2 * np.pi


class TestAnalyticFields:
    def test_taylor_green_energy_constant(self, grid2d):
        u = taylor_green_2d(grid2d)
        # closed form: L^2 A^2 / 4, so pi^2 for L = 2 pi and A = 1
        assert 0.5 * u.l2_norm() ** 2 == pytest.approx(np.pi**2, rel=1e-12)
        assert taylor_green_energy(L) == pytest.approx(np.pi**2, rel=1e-12)

    def test_generated_fields_divergence_free(self, grid2d, grid3d):
        for f in (
            taylor_green_2d(grid2d),
            taylor_green_3d(grid3d),
            abc_flow(grid3d),
            random_band_limited(grid2d, kmax=5, seed=1, divergence_free=True),
        ):
            assert divergence(f).max_norm() <= 1e-12 * max(f.max_norm(), 1.0)

    def test_vorticity_generator_matches_curl(self, grid2d):
        u = taylor_green_2d(grid2d, amplitude=1.3)
        w = taylor_green_2d_vorticity(grid2d, amplitude=1.3)
        assert (curl(u) - w).max_norm() <= 1e-10

    def test_abc_is_beltrami(self, grid3d):
        u = abc_flow(grid3d)
        assert (curl(u) - u).max_norm() <= 1e-10

    def test_registry(self, grid2d):
        f = analytic_field("taylor_green_2d", grid2d, amplitude=2.0)
        assert f.max_norm() == pytest.approx(2.0, rel=1e-12)
        with pytest.raises(ValueError):
            analytic_field("nope", grid2d)

    def test_band_limited_is_band_limited(self, grid2d):
        f = random_band_limited(grid2d, kmax=3, seed=2)
        from slns.spectral import workspace

        ws = workspace(grid2d)
        coeffs = ws.fft(f.values)
        outside = np.abs(coeffs[..., ws.k2_full > 9.0001]).max()
        assert outside <= 1e-12


class TestSpectralNS:
    def test_taylor_green_decay_exact(self, grid2d):
        u0 = taylor_green_2d(grid2d)
        uf = spectral_ns_run(u0, nu=0.05, dt=0.01, t_end=1.0)
        exact = taylor_green_2d(grid2d, np.exp(-taylor_green_decay_rate(L, 0.05) * 1.0))
        assert (uf - exact).max_norm() <= 1e-8

    def test_inviscid_energy_conserved(self, grid2d):
        u0 = random_band_limited(grid2d, kmax=3, seed=2, divergence_free=True)
        uf = spectral_ns_run(u0, nu=0.0, dt=2e-3, t_end=0.1)
        e0 = 0.5 * u0.l2_norm() ** 2
        e1 = 0.5 * uf.l2_norm() ** 2
        assert abs(e1 - e0) <= 1e-8 * e0

    def test_manufactured_steady_forcing(self, grid2d):
        nu = 0.05
        u0 = taylor_green_2d(grid2d)
        k = 2 * np.pi / L
        coef = 2.0 * nu * k**2

        def forcing(points, t):
            x, y = points[0], points[1]
            return coef * np.stack(
                [np.cos(k * x) * np.sin(k * y), -np.sin(k * x) * np.cos(k * y)]
            )

        uf = spectral_ns_run(u0, nu=nu, dt=0.01, t_end=1.0, forcing=forcing)
        assert (uf - u0).max_norm() <= 1e-8

    def test_self_convergence_order(self, grid2d):
        # measured against the halved-step solution on a nonlinear field
        u0 = random_band_limited(grid2d, kmax=3, seed=5, divergence_free=True)
        sols = []
        dts = [4e-2, 2e-2, 1e-2, 5e-3]
        for dt in dts:
            sols.append(spectral_ns_run(u0, nu=0.01, dt=dt, t_end=0.2))
        errs = [(sols[i] - sols[-1]).max_norm() for i in range(3)]
        assert fit_order(1.0 / np.asarray(dts[:3]), errs) >= 3.5

    def test_rejects_divergent_initial(self, grid2d):
        bad = Field.from_callable(
            grid2d, lambda c: np.stack([np.sin(c[0]), np.zeros_like(c[0])])
        )
        with pytest.raises(ValueError):
            spectral_ns_run(bad, nu=0.1, dt=0.01, t_end=0.1)

    @pytest.mark.parametrize("times", [[0.1, 0.05], [-0.01, 0.1], [0.0, np.nan]])
    def test_output_times_must_be_sorted_and_finite(self, grid2d, times):
        with pytest.raises(ValueError, match="output times"):
            spectral_ns_run(taylor_green_2d(grid2d), nu=0.1, dt=0.01, t_end=times)


class TestColeHopf:
    def setup_method(self):
        self.n = 256
        self.x = np.arange(self.n) * L / self.n
        self.psi0 = -np.cos(self.x)  # potential of sin(x)

    def test_zero_initial(self):
        u = cole_hopf_burgers(np.zeros(self.n), L, 0.1, 0.7, self.x)
        assert np.max(np.abs(u)) <= 1e-12

    def test_short_time_recovers_initial(self):
        u = cole_hopf_burgers(self.psi0, L, 0.1, 1e-14, self.x)
        assert np.max(np.abs(u - np.sin(self.x))) <= 1e-8

    def test_rejects_inviscid(self):
        with pytest.raises(ValueError):
            cole_hopf_burgers(self.psi0, L, 0.0, 0.1, self.x)

    def test_small_viscosity_within_rounding_limit(self):
        # eps * exp(1 / nu) = 1.1e-7 at nu = 0.05: still accurate
        u = cole_hopf_burgers(self.psi0, L, 0.05, 0.0, self.x)
        assert np.max(np.abs(u - np.sin(self.x))) <= 1e-5

    @pytest.mark.parametrize("nu", [0.04, 0.03, 0.02])
    def test_small_viscosity_beyond_rounding_limit_raises(self, nu):
        # at nu = 0.04 the t = 0 error was 7.5e-5, at 0.03 it was 0.31
        with pytest.raises(ValueError, match="rounding"):
            cole_hopf_burgers(self.psi0, L, nu, 0.0, self.x)

    def test_agrees_with_finite_difference_solver(self):
        # oracle independence: two unrelated discretizations must agree
        # before either is used as a gate
        u_ch = cole_hopf_burgers(self.psi0, L, 0.1, 1.0, self.x)
        u_fd = finite_difference_burgers(np.sin(self.x), L, 0.1, 1.0, n_fine=1024)
        assert np.max(np.abs(u_ch - u_fd)) <= 1e-6

    def test_pointwise_value_pinned(self):
        # frozen regression value at (x, t) = (pi/2, 1), nu = 0.1, computed
        # by this oracle and confirmed by the finite-difference solver
        val = cole_hopf_burgers(self.psi0, L, 0.1, 1.0, np.array([np.pi / 2]))[0]
        assert val == pytest.approx(0.71086832255, abs=1e-8)


class TestFiniteDifferenceBurgers:
    def test_self_convergence(self):
        n = 128
        x = np.arange(n) * L / n
        u0 = np.sin(x)
        coarse = finite_difference_burgers(u0, L, 0.1, 0.5, n_fine=512)
        fine = finite_difference_burgers(u0, L, 0.1, 0.5, n_fine=2048)
        ch = cole_hopf_burgers(-np.cos(x), L, 0.1, 0.5, x)
        assert np.max(np.abs(fine - ch)) < np.max(np.abs(coarse - ch))


class TestResolutionWarning:
    def test_underresolved_run_warns(self, grid2d):
        u0 = random_band_limited(grid2d, kmax=20, seed=9, divergence_free=True, amplitude=2.0)
        with pytest.warns(UserWarning, match="dealiasing"):
            spectral_ns_run(u0, nu=0.0, dt=2e-3, t_end=0.05)

    def test_resolved_runs_do_not_warn(self, grid2d):
        smooth = random_band_limited(grid2d, kmax=3, seed=2, divergence_free=True)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            spectral_ns_run(taylor_green_2d(grid2d), nu=0.05, dt=0.01, t_end=1.0)
            spectral_ns_run(smooth, nu=0.0, dt=2e-3, t_end=0.1)
