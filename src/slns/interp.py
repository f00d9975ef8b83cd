"""Periodic interpolation of grid fields at arbitrary points.

The scheme is the periodic interpolating cubic spline (exact at the
nodes, fourth-order between them). Compositions like ``u0(A(x))`` route
through here, so this is the hot path of the whole solver.

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

_inverse_symbols: dict[PeriodicGrid, np.ndarray] = {}


def _inverse_symbol(ws: SpectralWorkspace) -> np.ndarray:
    """``1 / B_hat`` over the half spectrum, cached per grid.

    ``B_hat = prod_j (4 + 2 cos theta_j) / 6``, ``theta_j = k_j h``, is the
    symbol of the cubic B-spline sampled at the nodes. It is bounded below
    by ``1/3``, so the division is well posed.
    """
    inv = _inverse_symbols.get(ws.grid)
    if inv is None:
        symbol = 1.0
        for k in ws.k_full:
            # the factor is formed first: it fixes the rounding of every run
            symbol = symbol * ((4.0 + 2.0 * np.cos(k * ws.grid.spacing)) / 6.0)
        inv = _inverse_symbols[ws.grid] = 1.0 / symbol
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
        *,
        spectrum: np.ndarray | None = None,
    ):
        values = np.asarray(values, dtype=np.float64)
        d = grid.dim
        if values.shape[-d:] != grid.shape:
            raise ValueError(f"values shape {values.shape} does not end in grid shape {grid.shape}")
        self.grid = grid
        ws = workspace(grid)
        if spectrum is not None and spectrum.shape != values.shape[:-d] + ws.spectral_shape:
            raise ValueError(
                f"spectrum shape {spectrum.shape} does not match values shape {values.shape} "
                f"(spectral shape {ws.spectral_shape})"
            )
        if spectrum is None:
            spectrum = ws.fft(values)
        coeffs = ws.ifft(spectrum * _inverse_symbol(ws))
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
                coef, idx, output=out[c], order=3, mode=_MODE, prefilter=False
            )
        return out.reshape((self._coeffs.shape[0],) + tail)


def interpolate_batch(
    grid: PeriodicGrid,
    values: np.ndarray,
    points: np.ndarray,
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
        out[i] = FieldInterpolator(grid, values[i], spectrum=spectrum).at(points[i])
    return out
