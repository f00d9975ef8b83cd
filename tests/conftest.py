import numpy as np
import pytest

from slns.grid import PeriodicGrid
from slns.interp import FieldInterpolator


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

    def counted(self, grid, values, order=3):
        built.append(values)
        original(self, grid, values, order)

    monkeypatch.setattr(FieldInterpolator, "__init__", counted)
    return built


def fit_order(values, errors):
    """Least-squares convergence order of ``errors`` against ``values``."""
    values = np.asarray(values, dtype=float)
    errors = np.asarray(errors, dtype=float)
    mask = errors > 0
    return -np.polyfit(np.log(values[mask]), np.log(errors[mask]), 1)[0]
