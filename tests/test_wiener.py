import numpy as np
import pytest

from slns.wiener import WienerEnsemble


class TestDeterminism:
    def test_same_query_identical(self):
        w = WienerEnsemble(32, 3, seed=42)
        a = w.increments(7, 0.01)
        b = w.increments(7, 0.01)
        assert np.array_equal(a, b)

    def test_steps_differ(self):
        w = WienerEnsemble(8, 1, seed=1)
        assert not np.array_equal(w.increments(0, 0.1), w.increments(1, 0.1))

    def test_seeds_differ(self):
        a = WienerEnsemble(8, 1, seed=1).increments(0, 0.1)
        b = WienerEnsemble(8, 1, seed=2).increments(0, 0.1)
        assert not np.array_equal(a, b)

    def test_subset_prefix_stable(self):
        big = WienerEnsemble(1024, 2, seed=5)
        small = WienerEnsemble(100, 2, seed=5)
        blk = big.increments(11, 0.02)
        assert np.array_equal(small.increments(11, 0.02), blk[:100])

    def test_query_order_irrelevant(self):
        w = WienerEnsemble(4, 1, seed=3)
        later = w.increments(9, 0.1)
        earlier = w.increments(2, 0.1)
        w2 = WienerEnsemble(4, 1, seed=3)
        assert np.array_equal(w2.increments(2, 0.1), earlier)
        assert np.array_equal(w2.increments(9, 0.1), later)


class TestStatistics:
    def test_covariance_is_dt_identity(self):
        m, dt = 100_000, 0.01
        w = WienerEnsemble(m, 2, seed=123)
        x = w.increments(0, dt)
        cov = x.T @ x / m
        # var of the sample variance is ~2 dt^2 / m; 3 sigma gate
        tol_diag = 3.0 * dt * np.sqrt(2.0 / m)
        tol_off = 3.0 * dt / np.sqrt(m)
        assert abs(cov[0, 0] - dt) <= tol_diag
        assert abs(cov[1, 1] - dt) <= tol_diag
        assert abs(cov[0, 1]) <= tol_off

    def test_mean_shrinks_at_root_m(self):
        dt = 0.01
        w = WienerEnsemble(100_000, 1, seed=77)
        for m in (100, 10_000):
            x = w.increments(0, dt)[:m]
            assert abs(x.mean()) <= 3.0 * np.sqrt(dt / m)

    def test_independence_across_steps(self):
        m, dt = 50_000, 0.25
        w = WienerEnsemble(m, 1, seed=8)
        a = w.increments(0, dt)[:, 0]
        b = w.increments(1, dt)[:, 0]
        corr = np.mean(a * b) / dt
        assert abs(corr) <= 3.0 / np.sqrt(m)


class TestRefinement:
    def test_substep_sum_consistency(self):
        # the coarse increment is exactly the sum of its refined pieces
        coarse = WienerEnsemble(16, 2, seed=21, substeps=4)
        fine = WienerEnsemble(16, 2, seed=21)
        dt = 0.08
        total = sum(fine.increments(4 * 3 + j, dt / 4) for j in range(4))
        assert np.allclose(coarse.increments(3, dt), total, rtol=0, atol=1e-15)

    def test_validation(self):
        with pytest.raises(ValueError):
            WienerEnsemble(0, 1, seed=0)
        with pytest.raises(ValueError):
            WienerEnsemble(4, 5, seed=0)
        with pytest.raises(ValueError):
            WienerEnsemble(4, 1, seed=0).increments(0, 0.0)
