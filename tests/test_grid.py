import numpy as np
import pytest

from slns.grid import Field, PeriodicGrid, l2_inner
from slns.spectral import workspace


class TestPeriodicGrid:
    def test_basic_properties(self):
        g = PeriodicGrid(2, 64, 2.0 * np.pi)
        assert g.spacing == pytest.approx(2.0 * np.pi / 64)
        assert g.shape == (64, 64)
        assert g.num_points == 64 * 64
        assert g.cell_volume == pytest.approx(g.spacing**2)

    @pytest.mark.parametrize("n", [7, 12, 48, 6, 4])
    def test_rejects_non_power_of_two(self, n):
        with pytest.raises(ValueError):
            PeriodicGrid(1, n, 1.0)

    def test_rejects_bad_dim_and_length(self):
        with pytest.raises(ValueError):
            PeriodicGrid(4, 16, 1.0)
        with pytest.raises(ValueError):
            PeriodicGrid(2, 16, 0.0)
        with pytest.raises(ValueError):
            PeriodicGrid(2, 16, np.inf)

    def test_wrap_centered_range(self):
        g = PeriodicGrid(1, 16, 2.0)
        d = g.wrap_centered(np.linspace(-5, 5, 101))
        assert np.all(d >= -1.0) and np.all(d < 1.0)
        assert g.wrap_centered(np.array([0.3]))[0] == pytest.approx(0.3)

    def test_wrap_centered_keeps_short_displacements_exactly(self):
        # an inversion residual is already shorter than L/2; wrapping it must
        # not round it to a multiple of ulp(L/2)
        g = PeriodicGrid(2, 16, 2.0 * np.pi)
        dx = np.array([1e-12, -3e-9, 0.4 * g.length])
        assert g.wrap_centered(dx).tobytes() == dx.tobytes()

    def test_coordinates_layout(self):
        g = PeriodicGrid(2, 8, 8.0)
        c = g.coordinates()
        assert c.shape == (2, 8, 8)
        assert c[0, 3, 0] == pytest.approx(3.0)
        assert c[1, 0, 5] == pytest.approx(5.0)

    def test_coordinates_shared_and_read_only(self):
        c = PeriodicGrid(2, 8, 8.0).coordinates()
        assert PeriodicGrid(2, 8, 8.0).coordinates() is c
        with pytest.raises(ValueError, match="read-only"):
            c[0, 0, 0] = 1.0

    def test_equal_fields_share_a_workspace(self):
        a, b = PeriodicGrid(2, 16, 2.0), PeriodicGrid(2, 16, 2.0)
        assert a == b and hash(a) == hash(b)
        assert workspace(a) is workspace(b)
        other = PeriodicGrid(2, 16, 3.0)
        assert other != a and workspace(other) is not workspace(a)


class TestField:
    def test_scalar_promotion_and_shapes(self, grid2d):
        f = Field(grid2d, np.zeros(grid2d.shape))
        assert f.components == 1 and f.values.shape == (1,) + grid2d.shape

    def test_rejects_nan_and_bad_shape(self, grid2d):
        bad = np.zeros((1,) + grid2d.shape)
        bad[0, 0, 0] = np.nan
        with pytest.raises(ValueError):
            Field(grid2d, bad)
        with pytest.raises(ValueError):
            Field(grid2d, np.zeros((1, 3, 3)))

    def test_l2_norm_of_sine(self, grid1d):
        f = Field.from_callable(grid1d, lambda c: np.sin(c[0]))
        # integral of sin^2 over [0, 2pi) is pi
        assert f.l2_norm() == pytest.approx(np.sqrt(np.pi), rel=1e-12)

    def test_inner_product_orthogonality(self, grid1d):
        f = Field.from_callable(grid1d, lambda c: np.sin(c[0]))
        g = Field.from_callable(grid1d, lambda c: np.cos(c[0]))
        assert abs(l2_inner(f, g)) < 1e-12

    def test_arithmetic(self, grid1d):
        f = Field.from_callable(grid1d, lambda c: np.sin(c[0]))
        assert (2.0 * f - f - f).max_norm() == 0.0
