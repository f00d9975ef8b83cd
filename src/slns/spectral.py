"""FFT-based differential operators on periodic grids.

All derivative multipliers zero the Nyquist mode (its derivative sign is
ambiguous on an even grid), and the ``k = 0`` mode passes through the
Leray projection untouched, so the spatial mean of a projected field is
preserved. Real transforms (``rfftn``) are used throughout; batched inputs
with leading axes are supported by every raw-array helper.
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

    def ifft(self, coeffs: np.ndarray) -> np.ndarray:
        return np.fft.irfftn(coeffs, s=self.grid.shape, axes=self.spatial_axes)


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
    outs = [ws.ifft(1j * ws.k_deriv[j] * coeffs) for j in range(d)]
    return np.stack(outs, axis=-d - 1)


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


def _phase_ladder(shift_axis: np.ndarray, n: int, scale: float, half: bool) -> np.ndarray:
    """``exp(-i k c)`` for all harmonics ``k`` of one axis, shape ``(nk, M)``.

    Built from one exponential per realization (the wavenumbers are integer
    multiples of ``scale``) by doubling: rows ``0 .. L-1`` times harmonic
    ``L`` give rows ``L .. 2L-1``. That is ``log2(n/2)`` contiguous
    vectorized products, and the rounding error grows with the number of
    doublings rather than with the harmonic.
    """
    m = shift_axis.shape[0]
    n2 = n // 2
    powers = np.empty((n2 + 1, m), dtype=complex)
    powers[0] = 1.0
    powers[1] = np.exp(-1j * scale * shift_axis)
    filled = 2
    while filled <= n2:
        h = min(filled, n2 + 1 - filled)
        np.multiply(powers[:h], powers[filled - 1] * powers[1], out=powers[filled : filled + h])
        filled += h
    if half:
        return powers  # rfft axis: harmonics 0 .. n/2
    neg = np.conj(powers[np.arange(n2, 0, -1)])  # -n/2 .. -1
    return np.concatenate([powers[:n2], neg], axis=0)


def shift_mean_multiplier(shifts: np.ndarray, ws: SpectralWorkspace) -> np.ndarray:
    """Empirical characteristic function ``mean_m exp(-i k . c_m)`` on the
    spectral grid; multiplying a field's coefficients by it averages the
    field's translates over the ensemble of uniform shifts ``c_m``."""
    grid = ws.grid
    d = grid.dim
    scale = _TWO_PI / grid.length
    axes = [
        _phase_ladder(shifts[:, j], grid.n, scale, half=(j == d - 1)) for j in range(d)
    ]
    m = shifts.shape[0]
    if d == 1:
        return axes[0].mean(axis=1)
    if d == 2:
        return axes[0] @ axes[1].T / m
    return np.einsum("am,bm,cm->abc", axes[0], axes[1], axes[2]) / m


# ---------------------------------------------------------------------------
# Field-level API
# ---------------------------------------------------------------------------


def gradient(f: Field) -> Field:
    """Spectral gradient; output stores ``d(f_i)/d(x_j)`` at component
    index ``i * dim + j``."""
    ws = workspace(f.grid)
    g = gradient_values(f.values, ws)
    return Field(f.grid, g.reshape((-1,) + f.grid.shape), validate=False)


def divergence(v: Field) -> Field:
    if not v.is_vector:
        raise ValueError(f"divergence needs {v.grid.dim} components, got {v.components}")
    return Field(v.grid, divergence_values(v.values, workspace(v.grid)), validate=False)


def laplacian(f: Field) -> Field:
    return Field(f.grid, laplacian_values(f.values, workspace(f.grid)), validate=False)


def curl(v: Field) -> Field:
    if not v.is_vector:
        raise ValueError(f"curl needs {v.grid.dim} components, got {v.components}")
    return Field(v.grid, curl_values(v.values, workspace(v.grid)), validate=False)


def leray_project(v: Field) -> Field:
    """Project onto divergence-free fields: ``v - grad(inv_lap(div v))``,
    computed modewise. Idempotent; the spatial mean passes through."""
    if not v.is_vector:
        raise ValueError(f"projection needs {v.grid.dim} components, got {v.components}")
    return Field(v.grid, project_values(v.values, workspace(v.grid)), validate=False)


def helmholtz_invert(v: Field, alpha: float) -> Field:
    """Apply ``(1 - alpha^2 Lap)^{-1}`` modewise; ``alpha = 0`` is the
    identity (returned as a copy, no transform applied)."""
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    return Field(v.grid, helmholtz_values(v.values, alpha, workspace(v.grid)), validate=False)
