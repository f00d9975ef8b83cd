import numpy as np
import pytest

from conftest import fit_order, spline_filter_coeffs
from slns.grid import Field, PeriodicGrid
from slns.interp import FieldInterpolator, interpolate_batch
from slns.spectral import workspace

# one-time measurement at N=64 gave max error 2.42e-7 for sin at midpoints,
# i.e. C = err * N^4 ~ 4.1; frozen with a 2x margin
SPLINE_CONSTANT = 8.0


class TestCubicSpline:
    def test_constant_exact(self, grid2d):
        f = Field(grid2d, np.full((1,) + grid2d.shape, 3.0))
        pts = np.random.default_rng(0).uniform(-5, 15, (2, 40))
        assert np.max(np.abs(FieldInterpolator(grid2d, f.values).at(pts) - 3.0)) <= 1e-13

    def test_nodes_exact(self, grid1d):
        f = Field.from_callable(grid1d, lambda c: np.sin(c[0]))
        vals = FieldInterpolator(grid1d, f.values).at(grid1d.axis()[None, :])
        assert np.max(np.abs(vals[0] - f.values[0])) <= 1e-13

    def test_midpoint_error_bound(self):
        for n in (32, 64, 128):
            grid = PeriodicGrid(1, n, 2 * np.pi)
            f = Field.from_callable(grid, lambda c: np.sin(c[0]))
            mid = grid.axis() + grid.spacing / 2
            spline = FieldInterpolator(grid, f.values)
            err = np.max(np.abs(spline.at(mid[None, :])[0] - np.sin(mid)))
            assert err <= SPLINE_CONSTANT / n**4

    def test_convergence_order(self):
        ns = [16, 32, 64, 128]
        errs = []
        pts = np.linspace(0.0, 2 * np.pi, 500, endpoint=False)[None, :]
        for n in ns:
            grid = PeriodicGrid(1, n, 2 * np.pi)
            f = Field.from_callable(grid, lambda c: np.sin(2 * c[0]) + 0.5 * np.cos(3 * c[0]))
            exact = np.sin(2 * pts[0]) + 0.5 * np.cos(3 * pts[0])
            errs.append(np.max(np.abs(FieldInterpolator(grid, f.values).at(pts)[0] - exact)))
        assert fit_order(ns, errs) >= 3.5

    def test_periodic_wrap(self, grid1d):
        f = Field.from_callable(grid1d, lambda c: np.sin(c[0]))
        spline = FieldInterpolator(grid1d, f.values)
        a = spline.at(np.array([[0.3]]))
        b = spline.at(np.array([[0.3 + 6 * grid1d.length]]))
        c = spline.at(np.array([[0.3 - 2 * grid1d.length]]))
        assert abs(a - b) <= 1e-12 and abs(a - c) <= 1e-12

    def test_rejects_nan_points(self, grid1d):
        f = Field.from_callable(grid1d, lambda c: np.sin(c[0]))
        with pytest.raises(ValueError):
            FieldInterpolator(grid1d, f.values).at(np.array([[np.nan]]))


class TestCoefficients:
    @pytest.mark.parametrize("order", [3])
    @pytest.mark.parametrize("dim, n", [(1, 256), (2, 64), (3, 16)])
    def test_spectral_division_matches_spline_filter(self, dim, n, order):
        grid = PeriodicGrid(dim, n, 2 * np.pi)
        vals = np.random.default_rng(dim).standard_normal((2,) + grid.shape)
        ref = spline_filter_coeffs(vals, order)
        coeffs = FieldInterpolator(grid, vals)._coeffs
        assert np.max(np.abs(coeffs - ref)) <= 1e-12 * np.max(np.abs(vals))
        spectrum = workspace(grid).fft(vals)
        given = FieldInterpolator(grid, vals, spectrum=spectrum)._coeffs
        assert np.array_equal(given, coeffs)

    @pytest.mark.parametrize("shape", [(2, 32, 32), (64, 64, 2), (64,)])
    def test_rejects_values_on_another_grid(self, grid2d, shape):
        with pytest.raises(ValueError, match=r"\(64, 64\)"):
            FieldInterpolator(grid2d, np.zeros(shape))

    def test_rejects_mismatched_spectrum(self, grid2d):
        vals = np.zeros((2,) + grid2d.shape)
        for spectrum in (np.zeros((2, 64, 64), complex), np.zeros((1, 64, 33), complex)):
            with pytest.raises(ValueError, match="spectrum shape"):
                FieldInterpolator(grid2d, vals, spectrum=spectrum)


class TestBatch:
    def test_batch_matches_single(self, grid1d):
        rng = np.random.default_rng(1)
        vals = rng.standard_normal((3, 1) + grid1d.shape)
        pts = rng.uniform(0, grid1d.length, (3, 1, 25))
        out = interpolate_batch(grid1d, vals, pts)
        for m in range(3):
            ref = FieldInterpolator(grid1d, vals[m]).at(pts[m])
            assert np.array_equal(out[m], ref)
