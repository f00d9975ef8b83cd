import numpy as np
import pytest
from scipy import ndimage

from slns.flowmap import translate_batch
from slns.grid import Field, PeriodicGrid
from slns.interp import FieldInterpolator
from slns.spectral import workspace


@pytest.fixture
def grid2d():
    return PeriodicGrid(2, 64, 2.0 * np.pi)


@pytest.fixture
def grid1d():
    return PeriodicGrid(1, 64, 2.0 * np.pi)


@pytest.fixture
def grid3d():
    return PeriodicGrid(3, 32, 2.0 * np.pi)


def spline_builds(monkeypatch):
    """The value arrays of the ``FieldInterpolator``s built from now on,
    in order (spline builds repeat exactly, so tests may count them)."""
    built = []
    original = FieldInterpolator.__init__

    def counted(self, grid, values, order=3, spectrum=None):
        built.append(values)
        original(self, grid, values, order, spectrum=spectrum)

    monkeypatch.setattr(FieldInterpolator, "__init__", counted)
    return built


def spline_filter_coeffs(values, order):
    """B-spline coefficients of each component of ``values`` by scipy's
    periodic prefilter, the reference for the spectral division in
    ``FieldInterpolator``."""
    return np.stack([ndimage.spline_filter(c, order=order, mode="grid-wrap") for c in values])


def composition_residual(flow):
    """``max |X(A(x)) - x|`` over grid and realizations of an inverted
    ``FlowEnsemble``: the inversion cross-check, on a fresh spline of ``xi``."""
    grid = flow.grid
    d = grid.dim
    coords = grid.coordinates().reshape(d, -1)
    cores = zip(flow.xi.reshape((-1, d) + grid.shape), flow.beta.reshape((-1,) + coords.shape))
    worst = 0.0
    for xi, b in cores:
        pts = coords + b
        xi_interp = FieldInterpolator(grid, xi, order=flow.order)
        res = grid.wrap_centered(pts + xi_interp.at(pts) - coords)
        worst = max(worst, float(np.max(np.abs(res))))
    return worst


def alpha_general(flow):
    """Back-to-labels displacements ``A_m - I`` of an inverted
    ``FlowEnsemble`` as ``(M, d) + shape``: ``A_m(x) = B_m(x - s_m)``, the
    inverse cores translated spectrally by the shifts, less the shifts."""
    grid = flow.grid
    beta = np.broadcast_to(flow.beta, (flow.m, grid.dim) + grid.shape)
    translated = translate_batch(beta, flow.shifts, workspace(grid))
    return translated - flow.shifts[(...,) + (None,) * grid.dim]


def taylor_green_2d_vorticity(grid, amplitude=1.0):
    """Analytic scalar curl of ``reference.taylor_green_2d``: ``-2k cos kx cos ky``."""
    k = 2.0 * np.pi / grid.length
    x, y = grid.coordinates()
    return Field(grid, (-2.0 * k * amplitude * np.cos(k * x) * np.cos(k * y))[None])


def fit_order(values, errors):
    """Least-squares convergence order of ``errors`` against ``values``."""
    values = np.asarray(values, dtype=float)
    errors = np.asarray(errors, dtype=float)
    mask = errors > 0
    return -np.polyfit(np.log(values[mask]), np.log(errors[mask]), 1)[0]
