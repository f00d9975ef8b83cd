"""FFT-based differential operators on periodic grids.

All derivative multipliers zero the Nyquist mode (its derivative sign is
ambiguous on an even grid), and the ``k = 0`` mode passes through the
Leray projection untouched, so the spatial mean of a projected field is
preserved. Real transforms (``rfftn``) are used throughout; batched inputs
with leading axes are supported by every raw-array helper.

Translating a field by a uniform shift ``c`` multiplies its coefficients by
``exp(-i k . c)``. One builder, :func:`_ladders`, makes those phases from
per-axis doubling ladders for every ensemble operation: the characteristic
function, the per-realization phases and the window mean built on them.
"""

from __future__ import annotations

import numpy as np

from .grid import Field, PeriodicGrid

_TWO_PI = 2.0 * np.pi


class SpectralWorkspace:
    """Precomputed wavenumber arrays for one grid.

    Cheap to build and stateless after construction; share freely within a
    process but give each worker its own instance when in doubt.
    """

    def __init__(self, grid: PeriodicGrid):
        self.grid = grid
        n, d, L = grid.n, grid.dim, grid.length
        scale = _TWO_PI / L

        # Integer frequencies per axis; last axis is the rfft half-spectrum.
        full = np.fft.fftfreq(n) * n
        half = np.fft.rfftfreq(n) * n
        freqs = [full.copy() for _ in range(d - 1)] + [half.copy()]

        # Derivative multipliers: Nyquist zeroed.
        deriv = []
        for f in freqs:
            g = f.copy()
            g[np.abs(g) == n // 2] = 0.0
            deriv.append(g * scale)

        def _bcast(arr: np.ndarray, axis: int) -> np.ndarray:
            shape = [1] * d
            shape[axis] = arr.shape[0]
            return arr.reshape(shape)

        #: derivative wavenumber arrays, broadcastable over spectral shape
        self.k_deriv = [_bcast(deriv[j], j) for j in range(d)]
        #: full wavenumber arrays (Nyquist kept), for symmetric multipliers
        self.k_full = [_bcast(freqs[j] * scale, j) for j in range(d)]

        self.k2_deriv = sum(k**2 for k in self.k_deriv)
        self.k2_full = sum(k**2 for k in self.k_full)
        self.k2_deriv_safe = np.where(self.k2_deriv == 0.0, 1.0, self.k2_deriv)

        self.spectral_shape = tuple((n,) * (d - 1) + (n // 2 + 1,))
        self.spatial_axes = tuple(range(-d, 0))

    # -- raw transforms (batched: leading axes preserved) --

    def fft(self, values: np.ndarray) -> np.ndarray:
        return np.fft.rfftn(values, axes=self.spatial_axes)

    def ifft(self, coeffs: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        return np.fft.irfftn(coeffs, s=self.grid.shape, axes=self.spatial_axes, out=out)


_workspaces: dict[PeriodicGrid, SpectralWorkspace] = {}


def workspace(grid: PeriodicGrid) -> SpectralWorkspace:
    """Process-local workspace cache keyed by grid."""
    ws = _workspaces.get(grid)
    if ws is None:
        ws = _workspaces[grid] = SpectralWorkspace(grid)
    return ws


# ---------------------------------------------------------------------------
# raw-array operators (hot paths; leading batch axes allowed)
# ---------------------------------------------------------------------------


def gradient_values(values: np.ndarray, ws: SpectralWorkspace) -> np.ndarray:
    """Spectral gradient. ``(..., spatial)`` -> ``(..., d, spatial)``;
    the derivative axis is inserted just before the spatial axes."""
    d = ws.grid.dim
    coeffs = ws.fft(values)
    out = np.empty(values.shape[:-d] + (d,) + values.shape[-d:])
    for j in range(d):
        ws.ifft(1j * ws.k_deriv[j] * coeffs, out=_comp(out, j, d))
    return out


def _comp(arr: np.ndarray, i: int, d: int) -> np.ndarray:
    """Select component ``i`` counting from the ``d + 1``-th axis from the end."""
    return arr[(Ellipsis, i) + (slice(None),) * d]


def divergence_values(values: np.ndarray, ws: SpectralWorkspace) -> np.ndarray:
    """``(..., d, spatial)`` -> ``(..., spatial)``."""
    d = ws.grid.dim
    coeffs = ws.fft(values)
    acc = 1j * ws.k_deriv[0] * _comp(coeffs, 0, d)
    for j in range(1, d):
        acc = acc + 1j * ws.k_deriv[j] * _comp(coeffs, j, d)
    return ws.ifft(acc)


def laplacian_values(values: np.ndarray, ws: SpectralWorkspace) -> np.ndarray:
    return ws.ifft(-ws.k2_full * ws.fft(values))


def project_coeffs(coeffs: np.ndarray, ws: SpectralWorkspace) -> np.ndarray:
    """Leray projection in place on spectral coefficients ``(..., d, kshape)``."""
    d = ws.grid.dim
    kdotv = ws.k_deriv[0] * _comp(coeffs, 0, d)
    for j in range(1, d):
        kdotv = kdotv + ws.k_deriv[j] * _comp(coeffs, j, d)
    kdotv = kdotv / ws.k2_deriv_safe
    for j in range(d):
        _comp(coeffs, j, d)[...] -= ws.k_deriv[j] * kdotv
    return coeffs


def project_values(values: np.ndarray, ws: SpectralWorkspace) -> np.ndarray:
    return ws.ifft(project_coeffs(ws.fft(values), ws))


def helmholtz_values(values: np.ndarray, alpha: float, ws: SpectralWorkspace) -> np.ndarray:
    if alpha == 0.0:
        return values.copy()
    mult = 1.0 / (1.0 + alpha**2 * ws.k2_full)
    return ws.ifft(mult * ws.fft(values))


def curl_values(values: np.ndarray, ws: SpectralWorkspace) -> np.ndarray:
    """2D: ``(..., 2, spatial)`` -> ``(..., spatial)``; 3D: vector curl."""
    d = ws.grid.dim
    if d == 1:
        raise ValueError("curl is undefined in one dimension")
    coeffs = ws.fft(values)

    def dj(comp: int, j: int) -> np.ndarray:
        return 1j * ws.k_deriv[j] * _comp(coeffs, comp, d)

    if d == 2:
        return ws.ifft(dj(1, 0) - dj(0, 1))
    c0 = ws.ifft(dj(2, 1) - dj(1, 2))
    c1 = ws.ifft(dj(0, 2) - dj(2, 0))
    c2 = ws.ifft(dj(1, 0) - dj(0, 1))
    return np.stack([c0, c1, c2], axis=-d - 1)


def _phase_ladder(
    shift_axis: np.ndarray, count: int, scale: float, out: np.ndarray | None = None
) -> np.ndarray:
    """``exp(-i k scale c)`` for harmonics ``k = 0 .. count - 1``, shape
    ``(count, M)``, written into ``out`` when given.

    Built from one phase per realization by doubling: rows ``0 .. L-1``
    times harmonic ``L`` give rows ``L .. 2L-1``. That is
    ``log2(count)`` contiguous vectorized products, and the rounding error
    grows with the number of doublings rather than with the harmonic.
    """
    powers = np.empty((count, shift_axis.shape[0]), dtype=complex) if out is None else out
    powers[0] = 1.0
    phase = scale * shift_axis
    powers[1].real = np.cos(phase)  # exp(-i phase); a complex exp costs about twice as much
    powers[1].imag = -np.sin(phase)
    filled = 2
    while filled < count:
        h = min(filled, count - filled)
        np.multiply(powers[:h], powers[filled - 1] * powers[1], out=powers[filled : filled + h])
        filled += h
    return powers


def _full_axis_phases(shift_axis: np.ndarray, n: int, scale: float) -> np.ndarray:
    """Phase ladder over a full FFT axis, harmonics ``0 .. n/2 - 1`` then
    ``-n/2 .. -1`` (the negative ones as conjugates), shape ``(n, M)``.
    Built in place: the ladder fills rows ``0 .. n/2``, then rows above
    ``n/2`` take the conjugates of rows ``n/2 - 1 .. 1`` and row ``n/2``
    (harmonic ``-n/2``) its own conjugate."""
    h = n // 2
    powers = np.empty((n, shift_axis.shape[0]), dtype=complex)
    _phase_ladder(shift_axis, h + 1, scale, out=powers[: h + 1])
    np.conj(powers[h - 1 : 0 : -1], out=powers[h + 1 :])
    np.conj(powers[h], out=powers[h])
    return powers


def _ladders(shifts: np.ndarray, ws: SpectralWorkspace) -> tuple[np.ndarray, np.ndarray]:
    """Ladders ``rows`` ``(R, M)`` and ``cols`` ``(K, M)`` whose outer product
    for realization ``m``, flattened and cut to the spectral size, is
    ``exp(-i k . c_m)``. In 1D a harmonic splits as ``k = b q + r``, ``b`` a
    power of two near ``sqrt(n/2)``: ``rows`` is the coarse ladder of stride
    ``b``, ``cols`` the fine one (``r < b``), so ``O(sqrt(n))`` ladder rows
    replace ``n/2 + 1`` and the doubling error grows with ``log2 b + log2 q``.
    In 2D and 3D ``cols`` is the half-spectrum ladder of the last axis and
    ``rows`` the (Khatri-Rao) product of the full-axis ladders of the others."""
    grid = ws.grid
    n, d = grid.n, grid.dim
    scale = _TWO_PI / grid.length
    if d == 1:
        n2 = n // 2
        b = 1 << (n2.bit_length() // 2)
        return (_phase_ladder(shifts[:, 0], n2 // b + 1, b * scale),
                _phase_ladder(shifts[:, 0], b, scale))
    rows = _full_axis_phases(shifts[:, 0], n, scale)
    for j in range(1, d - 1):
        axis = _full_axis_phases(shifts[:, j], n, scale)
        rows = (rows[:, None] * axis[None]).reshape(-1, shifts.shape[0])
    return rows, _phase_ladder(shifts[:, -1], n // 2 + 1, scale)


def shift_phases(shifts: np.ndarray, ws: SpectralWorkspace) -> np.ndarray:
    """Per-realization phases ``exp(-i k . c_m)``, shape ``(M,) +
    spectral_shape``: multiplying realization ``m``'s coefficients by its
    phase translates the field by ``c_m``."""
    rows, cols = _ladders(shifts, ws)
    phases = (rows.T[:, :, None] * cols.T[:, None]).reshape(shifts.shape[0], -1)
    return phases[:, : np.prod(ws.spectral_shape)].reshape((-1,) + ws.spectral_shape)


def shift_mean_coeffs(coeffs: np.ndarray, shifts: np.ndarray, ws: SpectralWorkspace) -> np.ndarray:
    """``mean_m coeffs[m] exp(-i k . c_m)``: the spectral coefficients of the
    ensemble mean of the translates ``f_m(x - c_m)``, for per-realization
    coefficients ``coeffs`` of shape ``(M, c) + spectral_shape``."""
    return np.einsum("mc...,m...->c...", coeffs, shift_phases(shifts, ws)) / shifts.shape[0]


def shift_mean_multiplier(shifts: np.ndarray, ws: SpectralWorkspace) -> np.ndarray:
    """Empirical characteristic function ``mean_m exp(-i k . c_m)``, the
    :func:`_ladders` contracted over the realizations as ``rows @ cols.T / M``;
    multiplying a field's coefficients by it averages the field's
    translates over the ensemble of uniform shifts ``c_m``."""
    rows, cols = _ladders(shifts, ws)
    chi = rows @ cols.T / shifts.shape[0]
    return chi.ravel()[: np.prod(ws.spectral_shape)].reshape(ws.spectral_shape)


# ---------------------------------------------------------------------------
# Field-level API
# ---------------------------------------------------------------------------


def gradient(f: Field) -> Field:
    """Spectral gradient; output stores ``d(f_i)/d(x_j)`` at component
    index ``i * dim + j``."""
    ws = workspace(f.grid)
    g = gradient_values(f.values, ws)
    return Field(f.grid, g.reshape((-1,) + f.grid.shape))


def divergence(v: Field) -> Field:
    if not v.is_vector:
        raise ValueError(f"divergence needs {v.grid.dim} components, got {v.components}")
    return Field(v.grid, divergence_values(v.values, workspace(v.grid)))


def laplacian(f: Field) -> Field:
    return Field(f.grid, laplacian_values(f.values, workspace(f.grid)))


def curl(v: Field) -> Field:
    if not v.is_vector:
        raise ValueError(f"curl needs {v.grid.dim} components, got {v.components}")
    return Field(v.grid, curl_values(v.values, workspace(v.grid)))


def leray_project(v: Field) -> Field:
    """Project onto divergence-free fields: ``v - grad(inv_lap(div v))``,
    computed modewise. Idempotent; the spatial mean passes through."""
    if not v.is_vector:
        raise ValueError(f"projection needs {v.grid.dim} components, got {v.components}")
    return Field(v.grid, project_values(v.values, workspace(v.grid)))


def helmholtz_invert(v: Field, alpha: float) -> Field:
    """Apply ``(1 - alpha^2 Lap)^{-1}`` modewise; ``alpha = 0`` is the
    identity (returned as a copy, no transform applied)."""
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    return Field(v.grid, helmholtz_values(v.values, alpha, workspace(v.grid)))
