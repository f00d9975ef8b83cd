"""Periodic interpolation of grid fields at arbitrary points.

Default scheme is the periodic interpolating cubic spline (exact at the
nodes, fourth-order between them); a tri-linear fallback is available for
speed and a quintic upgrade for studies where composition error must sit
far below the time discretization. Compositions like ``u0(A(x))`` route
through here, so this is the hot path of the whole solver.
"""

from __future__ import annotations

import numpy as np
from scipy import ndimage

from .grid import PeriodicGrid
from .utils import thread_map

_MODE = "grid-wrap"


class FieldInterpolator:
    """Evaluates one multi-component grid field at arbitrary points.

    Spline coefficients are prefiltered once at construction; repeated
    point evaluations then cost a single ``map_coordinates`` pass per
    component.
    """

    def __init__(self, grid: PeriodicGrid, values: np.ndarray, order: int = 3):
        if order not in (1, 3, 5):
            raise ValueError("interpolation order must be 1 (linear), 3 (cubic) or 5 (quintic)")
        values = np.asarray(values, dtype=np.float64)
        if values.ndim == grid.dim:
            values = values[np.newaxis]
        self.grid = grid
        self.order = order
        if order == 1:
            self._coeffs = values
        else:
            self._coeffs = np.stack(
                [ndimage.spline_filter(c, order=order, mode=_MODE) for c in values]
            )

    def at(self, points: np.ndarray) -> np.ndarray:
        """Evaluate at physical coordinates ``points`` of shape ``(d, ...)``;
        returns ``(components, ...)``. Coordinates wrap periodically."""
        points = np.asarray(points, dtype=np.float64)
        if points.shape[0] != self.grid.dim:
            raise ValueError(f"points must have leading dimension {self.grid.dim}")
        if not np.all(np.isfinite(points)):
            raise ValueError("interpolation points must be finite")
        tail = points.shape[1:]
        idx = points.reshape(self.grid.dim, -1) / self.grid.spacing
        out = np.empty((self._coeffs.shape[0], idx.shape[1]))
        for c, coef in enumerate(self._coeffs):
            ndimage.map_coordinates(
                coef, idx, output=out[c], order=self.order, mode=_MODE, prefilter=False
            )
        return out.reshape((self._coeffs.shape[0],) + tail)


def interpolate_batch(
    grid: PeriodicGrid,
    values: np.ndarray,
    points: np.ndarray,
    order: int = 3,
    workers: int = 1,
) -> np.ndarray:
    """Per-realization interpolation: ``values`` is ``(M, c, spatial)``,
    ``points`` is ``(M, d, ...)``; realization ``m`` of the field is
    evaluated at realization ``m`` of the points."""
    m = values.shape[0]
    if points.shape[0] != m:
        raise ValueError("values and points disagree on realization count")
    out = np.empty((m, values.shape[1]) + points.shape[2:])

    def _one(i: int) -> None:
        out[i] = FieldInterpolator(grid, values[i], order=order).at(points[i])

    thread_map(_one, m, workers)
    return out
