"""Velocity and vorticity recovery from back-to-labels maps.

The recovery formulas all have the shape "compose label data with ``A``,
optionally weight by a map gradient, project, average":

* Burgers:            ``u = E[ u0 o A ]``
* incompressible:     ``u = E P[ (grad^T A) (u0 o A) ]``
* 2D vorticity:       ``w = E[ w0 o A ]``
* 3D vorticity:       ``w = E[ ((grad X) w0) o A ]``
* filtered (alpha):   ``v`` as incompressible, then ``u = (1-a^2 Lap)^-1 v``

Because the noise is uniform in space, ``A_m(x) = B_m(x - s_m)`` with
``B_m`` the periodic inverse core, so every integrand is composed in the
core frame (with ``B_m``, at the grid nodes) and realization ``m``'s
integrand is that field translated by the shift ``s_m``. In the shared
representation (one core and shared labels for all realizations) the
formula is evaluated once, and since the shifts are i.i.d. ``N(0, 2 nu
tau I)`` the expectation over them is known in closed form: the one
integrand's coefficients times ``exp(-nu |k|^2 tau)``. That step has no
Monte Carlo error and reads no shift. In the general representation (one
core per realization, or per-realization labels) the average is the
Monte Carlo phase sum ``mean_m fft(J_m) exp(-i k . s_m)``. Either way the
projection is applied once, to the averaged coefficients, before one
inverse transform. One routine, :func:`_integrand`, builds the integrand
and its transform and keeps both on the flow, so the per-realization
diagnostics read them instead of rebuilding them.
"""

from __future__ import annotations

import numpy as np

from .flowmap import FlowEnsemble, translate_batch
from .grid import Field, PeriodicGrid
from .interp import FieldInterpolator, interpolate_batch
from .spectral import gradient_values, project_coeffs, project_values, shift_mean_coeffs, workspace


# ---------------------------------------------------------------------------
# the recovery integrand on one label window
# ---------------------------------------------------------------------------


def _label_array(label) -> np.ndarray:
    return label.values if isinstance(label, Field) else np.asarray(label)


def _integrand(
    flow: FlowEnsemble, label_values: np.ndarray, weber: bool
) -> tuple[np.ndarray, np.ndarray]:
    """``u0 o B``, weighted by ``grad^T B`` when ``weber`` is set: the
    integrand in the core frame of each inverse core ``B = I + beta``, and
    its ``rfftn``, which the average and the probe splines both read.

    Realization ``m``'s integrand is this field translated by
    ``flow.shifts[m]``, because ``A_m(x) = B_m(x - s_m)``. With a shared
    flow and shared labels ``(c,) + shape`` the result is the one core
    ``(c,) + shape``. Otherwise it is ``(M, c) + shape``: one core per
    realization, or per-realization labels ``(M, c) + shape`` (accumulated
    forcing) on the shared core.

    The result is kept on ``flow`` (cleared by ``invert``/``reset``) and
    returned again for the same label array, so ``label_values`` must not
    be written in place while its integrand is kept, and callers must not
    modify the result.
    """
    cached = flow._integrands.get(weber)
    if cached is not None and cached[0] is label_values:
        return cached[1:]
    grid = flow.grid
    d = grid.dim
    c = label_values.shape[-d - 1]
    beta = flow._require_beta()
    lead = beta.shape[: -d - 1]  # () for one shared core, else (M,)
    pts = beta.reshape(lead + (d, -1)) + grid.coordinates().reshape(d, -1)
    if label_values.ndim == d + 1:
        # one interpolator over the points of every core
        flat = np.moveaxis(pts, -2, 0).reshape(d, -1)
        vals = FieldInterpolator(grid, label_values).at(flat)
        vals = np.moveaxis(vals.reshape((c,) + lead + (-1,)), 0, -2)
    else:
        lead = (flow.m,)
        pts = np.broadcast_to(pts, lead + pts.shape[-2:])
        vals = interpolate_batch(grid, label_values, pts)
    vals = vals.reshape(lead + (c,) + grid.shape)
    if weber:
        grad = gradient_values(beta, workspace(grid))  # [.., j, i] = d_i beta_j
        gp, vp = "m" * (beta.ndim - d - 1), "m" * (vals.ndim - d - 1)
        vals = vals + np.einsum(f"{gp}ji...,{vp}j...->{vp}i...", grad, vals)
    flow._integrands[weber] = (label_values, vals, workspace(grid).fft(vals))
    return flow._integrands[weber][1:]


def exact_mean(flow: FlowEnsemble, label_values: np.ndarray) -> bool:
    """Whether recovery on ``flow`` averages its shifts exactly: one core
    and shared labels, so the realizations differ only by their shifts."""
    return flow.mode == "shared" and label_values.ndim == flow.grid.dim + 1


def _recover(
    flow: FlowEnsemble, label_values: np.ndarray, weber: bool, project: bool
) -> np.ndarray:
    """Ensemble-mean recovery; the workhorse behind every public formula.

    The mean of the translated integrands is formed once in Fourier space,
    and the projection is applied to that one mean: the sampled phase sum
    over per-realization integrands, or the exact Gaussian multiplier
    ``exp(-variance |k|^2 / 2)`` on the one shared integrand.
    """
    ws = workspace(flow.grid)
    vals_hat = _integrand(flow, label_values, weber)[1]
    if exact_mean(flow, label_values):
        coeffs = vals_hat * np.exp(-0.5 * flow.variance * ws.k2_full)
    else:
        coeffs = shift_mean_coeffs(vals_hat, flow.shifts, ws)
    if project:
        project_coeffs(coeffs, ws)
    return ws.ifft(coeffs)


def realization_field(
    flow: FlowEnsemble, label_values: np.ndarray, m: int, weber: bool, project: bool
) -> np.ndarray:
    """Recovered field of one realization (``u~`` when ``project=True``)."""
    ws = workspace(flow.grid)
    vals = _integrand(flow, label_values, weber)[0]
    vals = vals if vals.ndim == flow.grid.dim + 1 else vals[m]
    if project:
        vals = project_values(vals, ws)
    return translate_batch(vals[None], flow.shifts[m : m + 1], ws)[0]


def probe_spread(
    flow: FlowEnsemble, label_values: np.ndarray, probes: np.ndarray, weber: bool
) -> np.ndarray:
    """Per-realization recovered values at probe points, ``(M, c, P)``.

    Used for the Monte Carlo standard-error diagnostic; projection is
    omitted (the unprojected integrand carries the same sampling spread).
    The integrand that the last recovery on ``flow`` built from this same
    label array is reused, and its splines are built from its transform.
    One core with shared labels is averaged exactly and has no spread to
    sample: a ValueError.
    """
    if exact_mean(flow, label_values):
        raise ValueError("one core with shared labels has an exact mean and no probe spread")
    vals, vals_hat = _integrand(flow, label_values, weber)
    # realization m sees its core-frame integrand at (p - s_m)
    pts = probes[None] - flow.shifts[:, :, None]  # (M, d, P)
    return interpolate_batch(flow.grid, vals, pts, spectra=vals_hat)


# ---------------------------------------------------------------------------
# public recovery formulas
# ---------------------------------------------------------------------------


def burgers_velocity(flow: FlowEnsemble, u0) -> np.ndarray:
    """``E[u0 o A]``: plain transported average, no projection."""
    return _recover(flow, _label_array(u0), weber=False, project=False)


def weber_velocity(flow: FlowEnsemble, u0) -> np.ndarray:
    """``E P[(grad^T A)(u0 o A)]``: divergence-free velocity recovery.

    The projection is applied once, after the ensemble average. Projection,
    translation and averaging are all Fourier multipliers, so this equals
    the mean of the per-realization stochastic velocities ``u~`` (see
    :func:`stochastic_velocity`) to rounding. ``u0`` may be shared
    ``(d,) + shape`` or per-realization ``(M, d) + shape``.
    """
    d = flow.grid.dim
    label = _label_array(u0)
    if label.shape[-d - 1] != d:
        raise ValueError("weber recovery needs a vector label field")
    return _recover(flow, label, weber=True, project=True)


def stochastic_velocity(flow: FlowEnsemble, u0, m: int) -> np.ndarray:
    """Single-realization divergence-free velocity ``u~_m``."""
    return realization_field(flow, _label_array(u0), m, weber=True, project=True)


def transported_vorticity_2d(flow: FlowEnsemble, omega0) -> np.ndarray:
    """``E[w0 o A]`` for scalar 2D vorticity."""
    if flow.grid.dim != 2:
        raise ValueError("2D vorticity transport needs a 2D grid")
    label = _label_array(omega0)
    if label.shape[0] != 1:
        raise ValueError("2D vorticity label must be scalar")
    return _recover(flow, label, weber=False, project=False)


def transported_vorticity_3d(flow: FlowEnsemble, omega0) -> np.ndarray:
    """``E[((grad X) w0) o A]``: Cauchy-formula vorticity transport."""
    grid = flow.grid
    if grid.dim != 3:
        raise ValueError("Cauchy vorticity transport needs a 3D grid")
    label = _label_array(omega0)
    if label.shape[0] != 3:
        raise ValueError("3D vorticity label must have 3 components")
    gx = flow.grad_x_core()  # [..., i, j] = d_j X_i, includes identity
    prefix = "m" if flow.mode == "general" else ""
    stretched = np.einsum(f"{prefix}ij...,j...->{prefix}i...", gx, label)
    return _recover(flow, stretched, weber=False, project=False)


# ---------------------------------------------------------------------------
# forcing
# ---------------------------------------------------------------------------


def forcing_increment(flow: FlowEnsemble, forcing, t: float, weber: bool) -> np.ndarray:
    """``f(X, t)``, weighted by ``grad^T X`` when ``weber`` is set, for the
    current forward maps.

    The forced formula's label data is ``u0`` plus the time integral of
    this field over the label window: the Weber form for incompressible
    flow, the plain one for Burgers, which transports ``u`` itself. It is
    shared ``(c,) + shape`` while every realization has the one core and
    no shift (always so at ``nu = 0``), else ``(M, c) + shape``.
    """
    grid = flow.grid
    d = grid.dim
    shared = flow.mode == "shared" and not flow.shifts.any()
    xi = flow.xi if shared else flow.xi_general()
    pts = xi + grid.coordinates()
    if not shared:
        pts = pts + flow.shifts.reshape((flow.m, d) + (1,) * d)
    fvals = np.stack(
        [np.asarray(forcing(p, t)) for p in pts.reshape((-1, d) + grid.shape)]
    ).reshape(pts.shape)
    if not weber:
        return fvals
    gx = flow.grad_x_core()  # [.., j, i] = d_i X_j
    gp, vp = "m" * (gx.ndim - d - 2), "m" * (fvals.ndim - d - 1)
    return np.einsum(f"{gp}ji...,{vp}j...->{vp}i...", gx, fvals)


# ---------------------------------------------------------------------------
# circulation
# ---------------------------------------------------------------------------


CURVE_PANELS = 256  # quadrature panels of each circulation line integral


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
) -> dict:
    """Both sides of the circulation identity for one realization.

    ``oint_{X(curve)} u~ . dr`` is compared with ``oint_curve u0 . dr``;
    their absolute difference is the conservation defect. The curve is a
    callable ``s -> (d, len(s))`` on [0, 1], smooth and closed; both line
    integrals use the periodic trapezoidal rule on ``CURVE_PANELS`` panels.
    """
    d = grid.dim
    ends = curve(np.array([0.0, 1.0]))
    if np.max(np.abs(ends[:, 0] - ends[:, 1])) > 1e-12:
        raise ValueError("curve is not closed: endpoints differ by more than 1e-12")
    s = np.arange(CURVE_PANELS) / CURVE_PANELS
    q = np.asarray(curve(s), dtype=np.float64)
    if q.shape != (d, CURVE_PANELS):
        raise ValueError(f"curve must return shape ({d}, n)")
    dq = _closed_curve_tangent(q)

    u0_at = FieldInterpolator(grid, u0_values).at(q)
    gamma_initial = float(np.mean(np.sum(u0_at * dq, axis=0)))

    xi_at = FieldInterpolator(grid, xi_values).at(q)
    p = q + xi_at + np.asarray(shift)[:, None]
    dp = _closed_curve_tangent(p)
    ut_at = FieldInterpolator(grid, u_tilde_values).at(p)
    gamma_transported = float(np.mean(np.sum(ut_at * dp, axis=0)))

    return {
        "gamma_initial": gamma_initial,
        "gamma_transported": gamma_transported,
        "defect": abs(gamma_transported - gamma_initial),
    }
