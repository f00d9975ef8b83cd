import tracemalloc

import numpy as np
import pytest

from conftest import fit_order
from slns import spectral
from slns.flowmap import translate_batch
from slns.grid import Field, PeriodicGrid, l2_inner
from slns.reference import random_band_limited, taylor_green_2d
from slns.spectral import (
    curl,
    divergence,
    gradient,
    helmholtz_invert,
    laplacian,
    leray_project,
    shift_mean_multiplier,
    shift_phases,
    workspace,
)


def _field(grid, fn):
    return Field.from_callable(grid, fn)


class TestLerayProjection:
    def test_annihilates_gradient(self, grid2d):
        # v = grad(sin x) has no divergence-free part
        v = _field(grid2d, lambda c: np.stack([np.cos(c[0]), np.zeros_like(c[0])]))
        assert leray_project(v).max_norm() <= 1e-12 * v.max_norm()

    def test_identity_on_divergence_free(self, grid2d):
        u = taylor_green_2d(grid2d)
        w = leray_project(u)
        assert (w - u).max_norm() <= 1e-12 * u.max_norm()

    def test_sine_in_y_untouched_sine_in_x_killed(self, grid2d):
        # (sin y, 0) is divergence-free; (sin x, 0) is a pure gradient:
        # per mode w_k = v_k - k (k.v_k)/|k|^2 gives exactly zero.
        vy = _field(grid2d, lambda c: np.stack([np.sin(c[1]), np.zeros_like(c[0])]))
        assert (leray_project(vy) - vy).max_norm() <= 1e-12
        vx = _field(grid2d, lambda c: np.stack([np.sin(c[0]), np.zeros_like(c[0])]))
        assert leray_project(vx).max_norm() <= 1e-12

    def test_idempotent_on_random_field(self, grid2d):
        v = random_band_limited(grid2d, kmax=10, seed=11, components=2)
        w = leray_project(v)
        assert (leray_project(w) - w).max_norm() <= 1e-12 * max(v.max_norm(), 1.0)

    def test_orthogonality(self, grid2d):
        v = random_band_limited(grid2d, kmax=10, seed=4, components=2)
        q = random_band_limited(grid2d, kmax=10, seed=5)
        gq = Field(grid2d, gradient(q).values)
        w = leray_project(v)
        assert abs(l2_inner(w, gq)) <= 1e-10 * w.l2_norm() * gq.l2_norm()

    def test_mean_mode_passes_through(self, grid2d):
        v = _field(grid2d, lambda c: np.stack([0.7 + np.cos(c[0]), -0.3 + 0 * c[0]]))
        w = leray_project(v)
        assert w.mean() == pytest.approx([0.7, -0.3], abs=1e-14)

    def test_divergence_free_output(self, grid2d):
        v = random_band_limited(grid2d, kmax=20, seed=6, components=2)
        w = leray_project(v)
        assert divergence(w).max_norm() <= 1e-12 * max(w.max_norm(), 1.0)


class TestDerivatives:
    def test_gradient_of_constant(self, grid2d):
        f = Field(grid2d, np.full((1,) + grid2d.shape, 3.25))
        assert gradient(f).max_norm() == 0.0

    def test_gradient_of_sine(self, grid1d):
        f = _field(grid1d, lambda c: np.sin(c[0]))
        g = gradient(f)
        exact = _field(grid1d, lambda c: np.cos(c[0]))
        assert (g - exact).max_norm() <= 1e-10

    def test_gradient_matches_fd4(self):
        # 4th-order centered differences as the independent oracle
        errs = []
        ns = [32, 64, 128]
        for n in ns:
            grid = PeriodicGrid(1, n, 2 * np.pi)
            f = random_band_limited(grid, kmax=4, seed=7)
            g = gradient(f).values[0]
            v = f.values[0]
            h = grid.spacing
            fd = (-np.roll(v, -2) + 8 * np.roll(v, -1) - 8 * np.roll(v, 1) + np.roll(v, 2)) / (12 * h)
            errs.append(np.max(np.abs(g - fd)))
        assert fit_order(ns, errs) >= 3.5

    def test_divergence_examples(self, grid2d):
        tg = taylor_green_2d(grid2d)
        assert divergence(tg).max_norm() <= 1e-12
        v = _field(grid2d, lambda c: np.stack([np.sin(c[0]), np.zeros_like(c[0])]))
        exact = _field(grid2d, lambda c: np.cos(c[0]))
        assert (divergence(v) - exact).max_norm() <= 1e-10

    def test_divergence_of_gradient_is_laplacian(self, grid2d):
        q = random_band_limited(grid2d, kmax=8, seed=8)
        gq = Field(grid2d, gradient(q).values)
        lap = laplacian(q)
        assert (divergence(gq) - lap).max_norm() <= 1e-10 * max(lap.max_norm(), 1.0)


class TestCurl:
    def test_curl_taylor_green_sign(self, grid2d):
        # d1(u2) - d2(u1) = -cos x cos y - cos x cos y = -2 cos x cos y
        u = taylor_green_2d(grid2d)
        exact = _field(grid2d, lambda c: -2.0 * np.cos(c[0]) * np.cos(c[1]))
        assert (curl(u) - exact).max_norm() <= 1e-10

    def test_curl_of_gradient_vanishes(self, grid2d):
        q = random_band_limited(grid2d, kmax=9, seed=9)
        gq = Field(grid2d, gradient(q).values)
        assert curl(gq).max_norm() <= 1e-12 * max(gq.max_norm(), 1.0)

    def test_curl_3d_hand_oracle(self, grid3d):
        # curl (sin z, sin x, sin y) = (cos y, cos z, cos x)
        v = _field(grid3d, lambda c: np.stack([np.sin(c[2]), np.sin(c[0]), np.sin(c[1])]))
        exact = _field(grid3d, lambda c: np.stack([np.cos(c[1]), np.cos(c[2]), np.cos(c[0])]))
        assert (curl(v) - exact).max_norm() <= 1e-10

    def test_curl_rejects_1d(self, grid1d):
        v = _field(grid1d, lambda c: np.sin(c[0]))
        with pytest.raises(ValueError):
            curl(v)


class TestHelmholtz:
    def test_alpha_zero_identity(self, grid2d):
        v = random_band_limited(grid2d, kmax=12, seed=10, components=2)
        assert (helmholtz_invert(v, 0.0) - v).max_norm() == 0.0

    def test_single_mode_value(self, grid1d):
        v = _field(grid1d, lambda c: np.sin(c[0]))
        u = helmholtz_invert(v, 1.0)
        assert (u - 0.5 * v).max_norm() <= 1e-12

    def test_forward_residual(self, grid2d):
        v = random_band_limited(grid2d, kmax=10, seed=12, components=2)
        alpha = 0.7
        u = helmholtz_invert(v, alpha)
        residual = Field(grid2d, u.values - alpha**2 * laplacian(u).values) - v
        assert residual.max_norm() <= 1e-10 * max(v.max_norm(), 1.0)

    def test_rejects_negative_alpha(self, grid1d):
        v = _field(grid1d, lambda c: np.sin(c[0]))
        with pytest.raises(ValueError):
            helmholtz_invert(v, -0.5)


class TestTranslation:
    def test_translate_matches_analytic(self, grid1d):
        f = _field(grid1d, lambda c: np.sin(c[0]))
        shifted = translate_batch(f.values[None], np.array([[0.4]]), workspace(grid1d))[0]
        x = grid1d.axis()
        assert np.max(np.abs(shifted[0] - np.sin(x - 0.4))) <= 1e-12

    @pytest.mark.parametrize("dim,n", [(1, 16), (2, 16), (3, 8)])
    def test_shift_phases_match_direct_exp(self, dim, n):
        # every axis sees shifts of 0, +-L/2 and 3.7 L, and every column is
        # compared, negative and Nyquist harmonics included
        grid = PeriodicGrid(dim, n, 2 * np.pi)
        ws = workspace(grid)
        base = grid.length * np.array([0.0, 0.5, -0.5, 3.7, 0.123])
        shifts = np.stack([np.roll(base, j) for j in range(dim)], axis=1)
        phase = sum(ws.k_full[j] * shifts[:, j].reshape((-1,) + (1,) * dim) for j in range(dim))
        phases = shift_phases(shifts, ws)
        assert phases.shape == (5,) + ws.spectral_shape
        assert np.max(np.abs(phases - np.exp(-1j * phase))) <= 1e-13

    @pytest.mark.parametrize("dim,n", [(2, 16), (3, 8)])
    def test_whole_cell_translation_is_roll(self, dim, n):
        # a translation by whole cells is exact for any grid data
        grid = PeriodicGrid(dim, n, 2 * np.pi)
        cells = np.array([[1, -3, 2], [n + 5, 0, -1], [-7, 4, 3]])[:, :dim]
        values = np.random.default_rng(dim).normal(size=(3, 2) + grid.shape)
        out = translate_batch(values, cells * grid.spacing, workspace(grid))
        for m in range(3):
            rolled = np.roll(values[m], tuple(cells[m]), axis=tuple(range(1, dim + 1)))
            assert np.max(np.abs(out[m] - rolled)) <= 1e-13

    @pytest.mark.parametrize("dim,n", [(1, 64), (2, 64), (3, 16)])
    def test_mean_translates_matches_loop(self, dim, n):
        # the characteristic-function multiplier averages the translates
        grid = PeriodicGrid(dim, n, 2 * np.pi)
        f = random_band_limited(grid, kmax=6, seed=13, components=dim)
        ws = workspace(grid)
        rng = np.random.default_rng(0)
        shifts = rng.normal(0.0, 0.3, (17, dim))
        fast = ws.ifft(ws.fft(f.values) * shift_mean_multiplier(shifts, ws))
        slow = translate_batch(np.broadcast_to(f.values, (17,) + f.values.shape), shifts, ws)
        assert np.max(np.abs(fast - slow.mean(axis=0))) <= 1e-12


class TestShiftMeanMultiplier:
    @pytest.mark.parametrize("dim,n", [(1, 8), (1, 256), (1, 512), (2, 64), (3, 8), (3, 16)])
    def test_matches_direct_sum(self, dim, n):
        # shifts spread over several periods reach large phases, and the
        # comparison covers negative and Nyquist harmonics on every axis
        grid = PeriodicGrid(dim, n, 2 * np.pi)
        ws = workspace(grid)
        shifts = np.random.default_rng(dim).normal(0.0, grid.length, (48, dim))
        phase = sum(ws.k_full[j][..., None] * shifts[:, j] for j in range(dim))
        direct = np.exp(-1j * phase).mean(axis=-1)
        chi = shift_mean_multiplier(shifts, ws)
        assert chi.shape == ws.spectral_shape
        assert np.max(np.abs(chi - direct)) <= 1e-12

    @pytest.mark.parametrize("dim,n", [(1, 256), (2, 32), (3, 8)])
    def test_single_shift_is_its_phase(self, dim, n):
        # with M = 1 the mean is the one shift's own phase exp(-i k . c)
        grid = PeriodicGrid(dim, n, 2 * np.pi)
        ws = workspace(grid)
        shift = np.random.default_rng(5).normal(0.0, 1.0, (1, dim))
        phase = sum(ws.k_full[j] * shift[0, j] for j in range(dim))
        chi = shift_mean_multiplier(shift, ws)
        assert np.max(np.abs(chi - np.exp(-1j * phase))) <= 1e-13

    def test_1d_ladder_rows_grow_like_sqrt(self, monkeypatch):
        # one 1D multiplier on n = 256 (K = 129 harmonics) builds coarse and
        # fine ladders of O(sqrt K) rows, not one row per harmonic
        rows = []
        ladder = spectral._phase_ladder

        def counted(*args, **kwargs):
            out = ladder(*args, **kwargs)
            rows.append(out.shape[0])
            return out

        monkeypatch.setattr(spectral, "_phase_ladder", counted)
        ws = workspace(PeriodicGrid(1, 256, 2 * np.pi))
        shifts = np.random.default_rng(0).normal(0.0, 0.3, (64, 1))
        shift_mean_multiplier(shifts, ws)
        assert 0 < sum(rows) <= 2 * int(np.ceil(np.sqrt(129))) + 2

    def test_1d_takes_one_trig_pass(self, monkeypatch):
        # both 1D ladders start from one cos and one sin pass over the
        # shifts: the coarse unit phase is a product of fine ladder rows
        ws = workspace(PeriodicGrid(1, 256, 2 * np.pi))
        shifts = np.random.default_rng(0).normal(0.0, 0.3, (64, 1))
        calls = []
        for name in ("cos", "sin"):
            trig = getattr(np, name)
            monkeypatch.setattr(np, name, lambda x, *a, _t=trig, _n=name: calls.append(_n) or _t(x, *a))
        shift_mean_multiplier(shifts, ws)
        assert sorted(calls) == ["cos", "sin"]

    def test_2d_peak_allocation_is_the_ladders(self):
        # the (n, M) full-axis ladder is written in place, so one call holds
        # little beyond its two ladders; tracemalloc sees numpy's buffers
        n, m = 64, 1024
        ws = workspace(PeriodicGrid(2, n, 2 * np.pi))
        shifts = np.random.default_rng(0).normal(0.0, 1.0, (m, 2))
        shift_mean_multiplier(shifts, ws)  # warm-up
        tracemalloc.start()
        try:
            shift_mean_multiplier(shifts, ws)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.15 * (n + n // 2 + 1) * m * 16
