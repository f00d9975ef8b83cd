"""Periodic interpolation of grid fields at arbitrary points.

Default scheme is the periodic interpolating cubic spline (exact at the
nodes, fourth-order between them); a quintic upgrade serves studies where
composition error must sit far below the time discretization.
Compositions like ``u0(A(x))`` route through here, so this is the hot
path of the whole solver.

On a periodic grid the spline interpolation condition is a circulant
system, so the B-spline coefficients are one spectral division of the
samples by the sampled B-spline symbol (see :func:`_inverse_symbol`).
"""

from __future__ import annotations

import numpy as np
from scipy import ndimage

from .grid import PeriodicGrid
from .spectral import SpectralWorkspace, workspace

_MODE = "grid-wrap"

_inverse_symbols: dict[tuple[PeriodicGrid, int], np.ndarray] = {}


def _inverse_symbol(ws: SpectralWorkspace, order: int) -> np.ndarray:
    """``1 / B_hat`` over the half spectrum, cached per grid and order.

    ``B_hat = prod_j b(theta_j)``, ``theta_j = k_j h``, is the symbol of the
    B-spline sampled at the nodes: ``b = (4 + 2 cos theta) / 6`` (cubic)
    or ``(66 + 52 cos theta + 2 cos 2 theta) / 120`` (quintic). It is
    bounded below by ``1/3`` and ``2/15``, so the division is well posed.
    """
    key = (ws.grid, order)
    inv = _inverse_symbols.get(key)
    if inv is None:
        symbol = 1.0
        for k in ws.k_full:
            theta = k * ws.grid.spacing
            if order == 3:
                b = (4.0 + 2.0 * np.cos(theta)) / 6.0
            else:
                b = (66.0 + 52.0 * np.cos(theta) + 2.0 * np.cos(2.0 * theta)) / 120.0
            symbol = symbol * b
        inv = _inverse_symbols[key] = 1.0 / symbol
    return inv


class FieldInterpolator:
    """Evaluates one multi-component grid field at arbitrary points.

    ``values`` is ``(...,) + grid.shape``; its leading axes are flattened
    into components. The B-spline coefficients are computed once at
    construction, by one spectral division (``spectrum`` may pass the
    values' ``rfftn`` when the caller already holds it); repeated point
    evaluations then cost a single ``map_coordinates`` pass per component.
    """

    def __init__(
        self,
        grid: PeriodicGrid,
        values: np.ndarray,
        order: int = 3,
        spectrum: np.ndarray | None = None,
    ):
        if order not in (3, 5):
            raise ValueError("interpolation order must be 3 (cubic) or 5 (quintic)")
        values = np.asarray(values, dtype=np.float64)
        d = grid.dim
        if values.shape[-d:] != grid.shape:
            raise ValueError(f"values shape {values.shape} does not end in grid shape {grid.shape}")
        self.grid = grid
        self.order = order
        ws = workspace(grid)
        if spectrum is not None and spectrum.shape != values.shape[:-d] + ws.spectral_shape:
            raise ValueError(
                f"spectrum shape {spectrum.shape} does not match values shape {values.shape} "
                f"(spectral shape {ws.spectral_shape})"
            )
        if spectrum is None:
            spectrum = ws.fft(values)
        coeffs = ws.ifft(spectrum * _inverse_symbol(ws, order))
        self._coeffs = coeffs.reshape((-1,) + grid.shape)

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
    spectra: np.ndarray | None = None,
) -> np.ndarray:
    """Per-realization interpolation: ``values`` is ``(M, c, spatial)``,
    ``points`` is ``(M, d, ...)``; realization ``m`` of the field is
    evaluated at realization ``m`` of the points. ``spectra`` may pass the
    values' batched ``rfftn`` (see :class:`FieldInterpolator`)."""
    m = values.shape[0]
    if points.shape[0] != m:
        raise ValueError("values and points disagree on realization count")
    out = np.empty((m, values.shape[1]) + points.shape[2:])
    for i in range(m):
        spectrum = None if spectra is None else spectra[i]
        out[i] = FieldInterpolator(grid, values[i], order, spectrum=spectrum).at(points[i])
    return out
