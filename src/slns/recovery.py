"""Velocity and vorticity recovery from back-to-labels maps.

The recovery formulas all have the shape "compose label data with ``A``,
optionally weight by a map gradient, project, average":

* Burgers:            ``u = E[ u0 o A ]``
* incompressible:     ``u = E P[ (grad^T A) (u0 o A) ]``
* 2D vorticity:       ``w = E[ w0 o A ]``
* 3D vorticity:       ``w = E[ ((grad X) w0) o A ]``
* filtered (alpha):   ``v`` as incompressible, then ``u = (1-a^2 Lap)^-1 v``

In the shared representation (all realizations are uniform translates of
one core map) each formula is evaluated once on the core and the ensemble
average becomes a single spectral multiplier, the empirical characteristic
function of the shifts. In the general representation every realization is
evaluated separately and reduced in fixed index order, so results never
depend on worker scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .flowmap import FlowEnsemble, _solve_pointwise, translate_batch
from .grid import Field, PeriodicGrid
from .interp import FieldInterpolator, interpolate_batch
from .spectral import (
    gradient_values,
    helmholtz_values,
    project_values,
    workspace,
)


def reduce_mean(values: np.ndarray, reduction: str = "pairwise") -> np.ndarray:
    """Ensemble mean over axis 0. ``pairwise`` uses numpy's pairwise
    summation; ``sequential`` accumulates in strict index order for
    bit-reproducible sums regardless of BLAS/numpy version."""
    if reduction == "pairwise":
        return values.mean(axis=0)
    if reduction == "sequential":
        acc = values[0].astype(np.float64).copy()
        for i in range(1, values.shape[0]):
            acc += values[i]
        return acc / values.shape[0]
    raise ValueError(f"unknown reduction {reduction!r}")


# ---------------------------------------------------------------------------
# core evaluation on one label window
# ---------------------------------------------------------------------------


def _label_array(label) -> np.ndarray:
    return label.values if isinstance(label, Field) else np.asarray(label)


def _compose_core(flow: FlowEnsemble, label_values: np.ndarray, weber: bool) -> np.ndarray:
    """Shared mode: evaluate the recovery integrand on the core map.

    Returns ``(c,) + shape``; realization ``m`` of the integrand is this
    field translated by ``flow.shifts[m]``.
    """
    grid = flow.grid
    d = grid.dim
    beta = flow._require_beta()
    pts = (grid.coordinates() + beta).reshape(d, -1)
    vals = FieldInterpolator(grid, label_values, order=flow.order).at(pts)
    vals = vals.reshape((label_values.shape[0],) + grid.shape)
    if not weber:
        return vals
    grad_beta = gradient_values(beta, workspace(grid))  # [j, i] = d_i beta_j
    return vals + np.einsum("ji...,j...->i...", grad_beta, vals)


def _integrand_general(flow: FlowEnsemble, label_values: np.ndarray, weber: bool) -> np.ndarray:
    """General mode: per-realization integrand values, ``(M, c) + shape``.

    ``label_values`` may be shared ``(c,) + shape`` or per-realization
    ``(M, c) + shape`` (accumulated forcing).
    """
    grid = flow.grid
    d = grid.dim
    alpha = flow.alpha_general()
    coords = grid.coordinates().reshape(1, d, -1)
    pts = alpha.reshape(flow.m, d, -1) + coords
    if label_values.ndim == d + 1:
        flat = np.moveaxis(pts, 1, 0).reshape(d, -1)
        vals = FieldInterpolator(grid, label_values, order=flow.order).at(flat)
        c = label_values.shape[0]
        vals = np.moveaxis(vals.reshape(c, flow.m, -1), 0, 1)
        vals = vals.reshape((flow.m, c) + grid.shape)
    else:
        vals = interpolate_batch(
            grid, label_values, pts, order=flow.order, workers=flow.workers
        )
        vals = vals.reshape((flow.m, label_values.shape[1]) + grid.shape)
    if not weber:
        return vals
    grad_alpha = gradient_values(alpha, workspace(grid))  # [m, j, i] = d_i alpha_j
    return vals + np.einsum("mji...,mj...->mi...", grad_alpha, vals)


def _recover(
    flow: FlowEnsemble,
    label_values: np.ndarray,
    weber: bool,
    project: bool,
    reduction: str = "pairwise",
) -> np.ndarray:
    """Ensemble-mean recovery; the workhorse behind every public formula."""
    grid = flow.grid
    ws = workspace(grid)
    per_realization_labels = label_values.ndim == grid.dim + 2
    if flow.mode == "shared" and not per_realization_labels:
        core = _compose_core(flow, label_values, weber)
        flow._cores[weber] = (label_values, core)
        if project:
            core = project_values(core, ws)
        if not flow.shifts.any():
            return core.copy()
        return ws.ifft(ws.fft(core) * flow.shift_multiplier(ws))
    vals = _integrand_general(flow, label_values, weber)
    if project:
        vals = project_values(vals, ws)
    return reduce_mean(vals, reduction)


def realization_field(
    flow: FlowEnsemble, label_values: np.ndarray, m: int, weber: bool, project: bool
) -> np.ndarray:
    """Recovered field of one realization (``u~`` when ``project=True``)."""
    grid = flow.grid
    ws = workspace(grid)
    if flow.mode == "shared" and label_values.ndim == grid.dim + 1:
        core = _compose_core(flow, label_values, weber)
        if project:
            core = project_values(core, ws)
        if not flow.shifts[m].any():
            return core
        return translate_batch(core[None], flow.shifts[m : m + 1], ws)[0]
    vals = _integrand_general(flow, label_values, weber)[m]
    if project:
        vals = project_values(vals, ws)
    return vals


def probe_spread(
    flow: FlowEnsemble, label_values: np.ndarray, probes: np.ndarray, weber: bool
) -> np.ndarray:
    """Per-realization recovered values at probe points, ``(M, c, P)``.

    Used for the Monte Carlo standard-error diagnostic; projection is
    omitted (the unprojected integrand carries the same sampling spread).
    In shared mode the core that the last recovery on ``flow`` composed
    from this same label array is reused, so ``label_values`` must not
    have been modified in place since.
    """
    grid = flow.grid
    d = grid.dim
    if flow.mode == "shared" and label_values.ndim == d + 1:
        cached = flow._cores.get(weber)
        if cached is not None and cached[0] is label_values:
            core = cached[1]
        else:
            core = _compose_core(flow, label_values, weber)
        interp = FieldInterpolator(grid, core, order=flow.order)
        # realization m sees the core at (p - s_m)
        pts = probes[None, :, :] - flow.shifts[:, :, None]  # (M, d, P)
        flat = np.moveaxis(pts, 1, 0).reshape(d, -1)
        vals = interp.at(flat)
        return np.moveaxis(vals.reshape(-1, flow.m, probes.shape[1]), 0, 1)
    vals = _integrand_general(flow, label_values, weber)
    out = np.empty((flow.m, vals.shape[1], probes.shape[1]))
    for i in range(flow.m):
        out[i] = FieldInterpolator(grid, vals[i], order=flow.order).at(probes)
    return out


# ---------------------------------------------------------------------------
# public recovery formulas
# ---------------------------------------------------------------------------


def burgers_velocity(flow: FlowEnsemble, u0, reduction: str = "pairwise") -> np.ndarray:
    """``E[u0 o A]``: plain transported average, no projection."""
    return _recover(flow, _label_array(u0), weber=False, project=False, reduction=reduction)


def weber_velocity(flow: FlowEnsemble, u0, reduction: str = "pairwise") -> np.ndarray:
    """``E P[(grad^T A)(u0 o A)]``: divergence-free velocity recovery.

    The projection is applied per realization (each projected integrand is
    the stochastic velocity ``u~`` of that realization); since projection,
    translation and averaging are all Fourier multipliers, projecting the
    ensemble mean once gives the same field to rounding.
    """
    label = _label_array(u0)
    if label.shape[0] != flow.grid.dim:
        raise ValueError("weber recovery needs a vector label field")
    return _recover(flow, label, weber=True, project=True, reduction=reduction)


def stochastic_velocity(flow: FlowEnsemble, u0, m: int) -> np.ndarray:
    """Single-realization divergence-free velocity ``u~_m``."""
    return realization_field(flow, _label_array(u0), m, weber=True, project=True)


def transported_vorticity_2d(flow: FlowEnsemble, omega0, reduction: str = "pairwise") -> np.ndarray:
    """``E[w0 o A]`` for scalar 2D vorticity."""
    if flow.grid.dim != 2:
        raise ValueError("2D vorticity transport needs a 2D grid")
    label = _label_array(omega0)
    if label.shape[0] != 1:
        raise ValueError("2D vorticity label must be scalar")
    return _recover(flow, label, weber=False, project=False, reduction=reduction)


def transported_vorticity_3d(flow: FlowEnsemble, omega0, reduction: str = "pairwise") -> np.ndarray:
    """``E[((grad X) w0) o A]``: Cauchy-formula vorticity transport."""
    grid = flow.grid
    if grid.dim != 3:
        raise ValueError("Cauchy vorticity transport needs a 3D grid")
    label = _label_array(omega0)
    if label.shape[0] != 3:
        raise ValueError("3D vorticity label must have 3 components")
    gx = flow.grad_x_core()  # [..., i, j] = d_j X_i, includes identity
    if flow.mode == "shared":
        stretched = np.einsum("ij...,j...->i...", gx, label)
        return _recover(flow, stretched, weber=False, project=False, reduction=reduction)
    stretched = np.einsum("mij...,j...->mi...", gx, label)
    return _recover(flow, stretched, weber=False, project=False, reduction=reduction)


def filtered_velocity_pair(
    flow: FlowEnsemble, v0, alpha: float, reduction: str = "pairwise"
) -> tuple[np.ndarray, np.ndarray]:
    """Alpha-model recovery: momentum ``v`` by the Weber formula, transport
    velocity ``u`` by the inverse Helmholtz filter ``(1 - a^2 Lap)^{-1}``.
    ``alpha = 0`` returns ``u`` as the same array as ``v``."""
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    v = weber_velocity(flow, v0, reduction=reduction)
    if alpha == 0.0:
        return v, v
    u = helmholtz_values(v, alpha, workspace(flow.grid))
    return v, u


# ---------------------------------------------------------------------------
# forcing accumulators
# ---------------------------------------------------------------------------


@dataclass
class ForcingAccumulator:
    """Label-side forcing integral.

    ``kind="velocity"`` accumulates ``(grad^T X) f(X_s, s)``; with ``f = 0``
    the values stay equal to the initial label data forever. The vorticity
    variants accumulate ``g(X_s, s)`` (2D) or ``(grad X)^{-1} g(X_s, s)``
    (3D). ``values`` is shared ``(c,) + shape`` until a nonzero-noise,
    mid-window accumulation forces per-realization values ``(M, c) + shape``.
    """

    grid: PeriodicGrid
    values: np.ndarray
    kind: str = "velocity"

    @classmethod
    def start(cls, grid: PeriodicGrid, label0, kind: str = "velocity") -> "ForcingAccumulator":
        return cls(grid, _label_array(label0).copy(), kind)

    @property
    def per_realization(self) -> bool:
        return self.values.ndim == self.grid.dim + 2

    def _increment(self, flow: FlowEnsemble, forcing, t: float) -> np.ndarray:
        """Integrand at time ``t`` for the current forward maps."""
        grid = self.grid
        d = grid.dim
        coords = grid.coordinates().reshape(d, -1)
        if flow.is_identity():
            fvals = np.asarray(forcing(coords.reshape((d,) + grid.shape), t))
            return fvals  # grad X = I
        xi = flow.xi_general().reshape(flow.m, d, -1)
        pts = xi + coords[None] + flow.shifts[:, :, None]
        fvals = np.stack(
            [np.asarray(forcing(pts[i].reshape((d,) + grid.shape), t)) for i in range(flow.m)]
        )
        if self.kind == "vorticity" and d == 2:
            return fvals
        gx = flow.grad_x_core()
        if flow.mode == "shared":
            gx = np.broadcast_to(gx, (flow.m,) + gx.shape)
        if self.kind == "velocity":
            # (grad^T X) f, with [m, j, i] = d_i X_j
            return np.einsum("mji...,mj...->mi...", gx, fvals)
        out = np.empty_like(fvals)
        for i in range(flow.m):
            jac = gx[i].reshape(d, d, -1)
            out[i] = _solve_pointwise(jac, fvals[i].reshape(d, -1)).reshape((d,) + grid.shape)
        return out

    def advanced(
        self,
        flow_start: FlowEnsemble,
        forcing,
        t: float,
        dt: float,
        scheme: str = "left",
        flow_end: FlowEnsemble | None = None,
    ) -> "ForcingAccumulator":
        """Accumulator after one step.  ``left`` uses the start-of-step maps
        only; ``trapezoid`` (refinement flag) averages start and end."""
        inc = self._increment(flow_start, forcing, t)
        if not inc.any() and scheme == "left":
            return ForcingAccumulator(self.grid, self.values, self.kind)
        if scheme == "trapezoid":
            if flow_end is None:
                raise ValueError("trapezoid accumulation needs the end-of-step maps")
            inc_end = self._increment(flow_end, forcing, t + dt)
            if inc.ndim < inc_end.ndim:
                inc = np.broadcast_to(inc, inc_end.shape)
            elif inc_end.ndim < inc.ndim:
                inc_end = np.broadcast_to(inc_end, inc.shape)
            inc = 0.5 * (inc + inc_end)
        elif scheme != "left":
            raise ValueError(f"unknown forcing quadrature {scheme!r}")
        vals = self.values
        if vals.ndim < inc.ndim:
            vals = np.broadcast_to(vals, inc.shape[:1] + vals.shape)
        elif inc.ndim < vals.ndim:
            inc = np.broadcast_to(inc, vals.shape[:1] + inc.shape)
        return ForcingAccumulator(self.grid, vals + dt * inc, self.kind)


# ---------------------------------------------------------------------------
# circulation
# ---------------------------------------------------------------------------


def _closed_curve_tangent(samples: np.ndarray) -> np.ndarray:
    """d/ds of a smooth closed curve sampled at ``s_i = i/n``, by spectral
    differentiation in the parameter."""
    n = samples.shape[1]
    freq = np.fft.rfftfreq(n) * n
    freq[np.abs(freq) == n // 2] = 0.0
    coeffs = np.fft.rfft(samples, axis=1)
    return np.fft.irfft(2j * np.pi * freq * coeffs, n=n, axis=1)


def circulation(
    grid: PeriodicGrid,
    u0_values: np.ndarray,
    u_tilde_values: np.ndarray,
    xi_values: np.ndarray,
    shift: np.ndarray,
    curve,
    quadrature_n: int = 256,
    order: int = 3,
) -> dict:
    """Both sides of the circulation identity for one realization.

    ``oint_{X(curve)} u~ . dr`` is compared with ``oint_curve u0 . dr``;
    their absolute difference is the conservation defect. The curve is a
    callable ``s -> (d, len(s))`` on [0, 1], smooth and closed; both line
    integrals use the periodic trapezoidal rule on ``quadrature_n`` panels.
    """
    d = grid.dim
    ends = curve(np.array([0.0, 1.0]))
    if np.max(np.abs(ends[:, 0] - ends[:, 1])) > 1e-12:
        raise ValueError("curve is not closed: endpoints differ by more than 1e-12")
    s = np.arange(quadrature_n) / quadrature_n
    q = np.asarray(curve(s), dtype=np.float64)
    if q.shape != (d, quadrature_n):
        raise ValueError(f"curve must return shape ({d}, n)")
    dq = _closed_curve_tangent(q)

    u0_at = FieldInterpolator(grid, u0_values, order=order).at(q)
    gamma_initial = float(np.mean(np.sum(u0_at * dq, axis=0)))

    xi_at = FieldInterpolator(grid, xi_values, order=order).at(q)
    p = q + xi_at + np.asarray(shift)[:, None]
    dp = _closed_curve_tangent(p)
    ut_at = FieldInterpolator(grid, u_tilde_values, order=order).at(p)
    gamma_transported = float(np.mean(np.sum(ut_at * dp, axis=0)))

    return {
        "gamma_initial": gamma_initial,
        "gamma_transported": gamma_transported,
        "defect": abs(gamma_transported - gamma_initial),
    }
