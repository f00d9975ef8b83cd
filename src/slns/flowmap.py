"""Stochastic flow maps and their inverses on periodic grids.

A :class:`FlowEnsemble` tracks, for ``M`` noise realizations, the forward
map ``X`` and the back-to-labels map ``A = X^{-1}`` over the current label
window. Maps are stored as displacements so they stay periodic:

    X_m(a) = a + xi_m(a) + s_m

where ``xi_m`` is a periodic field and ``s_m`` is the spatially uniform
part (the accumulated Brownian shift of realization ``m``). Because the
noise is uniform in space, inverting ``X_m`` reduces exactly to inverting
the periodic core ``I + xi_m`` and translating:

    A_m(x) = B_m(x - s_m),        B_m = (I + xi_m)^{-1}

so inversion (a fold check, a start from the quadratic Taylor model of
``xi`` at each node, then fixed-point iteration with a damped Newton
fallback) only ever sees the periodic core, and ``A_m`` is never formed:
callers translate what they build on ``B_m`` by ``s_m`` with the spectral
phases of :func:`~slns.spectral.shift_phases` (:func:`translate_batch`).
Immediately after a label reset all realizations share one core (``xi_m``
identical for all ``m``); the ensemble stays in that cheap shared
representation until a subsequent drift evaluation makes the cores diverge.

For the same reason one step with a frozen drift moves every realization
by one deterministic map ``y -> y + phi(y)`` plus its own increment. So
``phi`` is built once on the grid nodes and composed with every core by
one spline evaluation at the cores' shifted points (``phi`` itself at the
identity core). Two rules build ``phi``: the one-stage Euler-Maruyama
``dt u`` (``stages=1``) and the two-stage Heun rule of the noise-shifted
deterministic flow (``stages=2``), which realizes the translated-flow
construction ``X = Y + W`` with ``Y' = u(Y + W)``.
"""

from __future__ import annotations

import copy

import numpy as np

from .errors import NonInvertible
from .grid import PeriodicGrid
from .interp import FieldInterpolator
from .spectral import (
    SpectralWorkspace,
    gradient_values,
    shift_mean_multiplier,
    shift_phases,
    workspace,
)

DEFAULT_TOL_FACTOR = 1e-8
MAX_UPDATES = 25  # fixed-point and Newton updates of one inversion, together


# ---------------------------------------------------------------------------
# small dense linear algebra, vectorized over points
# ---------------------------------------------------------------------------


def _cofactors(jac: np.ndarray) -> tuple[list, np.ndarray]:
    """Cofactor table ``C[i][j]`` and determinant of ``d x d`` matrices.

    ``jac[i, j]`` is an array over points (``d <= 3``). The determinant is
    ``sum_j jac[0, j] C[0][j]`` and the inverse is ``C^T / det``; the 3x3
    cofactors are the cyclic minors ``J[i+1][j+1] J[i+2][j+2] -
    J[i+1][j+2] J[i+2][j+1]``, indices mod 3.
    """
    d = len(jac)
    if d == 1:
        cof = [[1.0]]
    elif d == 2:
        cof = [[jac[1, 1], -jac[1, 0]], [-jac[0, 1], jac[0, 0]]]
    else:  # i + 1 = i - 2 and i + 2 = i - 1 (mod 3)
        cof = [[jac[i - 2, j - 2] * jac[i - 1, j - 1] - jac[i - 2, j - 1] * jac[i - 1, j - 2]
                for j in range(3)] for i in range(3)]
    return cof, sum(jac[0, j] * cof[0][j] for j in range(d))


def _newton_step(jac: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """``J^{-1} r = C^T r / det`` for ``jac`` ``(d, d, n)`` and ``rhs`` ``(d, n)``."""
    cof, det = _cofactors(jac)
    d = len(jac)
    return np.stack([sum(cof[i][j] * rhs[i] for i in range(d)) for j in range(d)]) / det


# ---------------------------------------------------------------------------
# inversion of a periodic core map
# ---------------------------------------------------------------------------

# a fixed-point update must shrink each active residual to this fraction
_FIXED_POINT_RATIO = 0.5
# a damped Newton update halves its step at most this often while it raises
# the residual; a nearly singular core needs more than a few halvings
_NEWTON_HALVINGS = 6


def invert_core(
    grid: PeriodicGrid,
    xi: np.ndarray,
    tol: float | None = None,
    det_dev: np.ndarray | None = None,
) -> np.ndarray:
    """Invert ``Y = I + xi`` on the grid: returns the displacement ``beta``
    with ``Y(y + beta(y)) = y`` (mod L) at every node.

    One forward transform of ``xi`` feeds everything below: the spectra of
    ``grad xi`` and of the Hessian come back in one inverse transform, and
    the splines of ``xi`` and ``grad xi`` are built from the spectra.

    The guess solves the node's quadratic Taylor model of ``xi`` (spectral
    ``grad xi`` and Hessian ``H``): from ``beta = -xi + grad xi . xi``, two
    sweeps of ``beta <- -(xi + grad xi . beta + H[beta, beta] / 2)``, so
    its residual is ``O(|xi|^4)``. Points above ``tol`` then take the
    fixed-point update ``a <- a - r``, ``r = wrap(a + xi(a) - x)``, which
    needs only ``xi`` and contracts by about ``|grad xi|``. Once an update
    fails to halve a residual, or its contraction cannot reach ``tol``
    within the updates left, it is undone there and damped Newton (on a
    spline of ``grad xi``, built only then) runs the rest; ``MAX_UPDATES``
    caps both methods' updates together. Every point Newton did not update
    then takes one more, unverified fixed-point update from its last
    (converged) residual.

    Raises :exc:`NonInvertible` if ``det(I + grad xi) <= 0`` at a node (the
    map folds and has no inverse) or a node misses ``tol`` after
    ``MAX_UPDATES`` updates. When ``det_dev`` (a one-element array) is given,
    the fold check writes ``max |det(I + grad xi) - 1|`` into it.
    """
    d = grid.dim
    if tol is None:
        tol = DEFAULT_TOL_FACTOR * grid.length
    ws = workspace(grid)
    xi_hat = ws.fft(xi)
    # spectra of grad xi (component i d + j = d_j xi_i), then of the Hessian
    # pairs j <= k (off-diagonal ones counted twice in H[b, b])
    pairs = [(j, k) for j in range(d) for k in range(j, d)]
    spec = np.empty((d * (d + len(pairs)),) + ws.spectral_shape, dtype=complex)
    dxi_hat = spec[: d * d].reshape((d, d) + ws.spectral_shape)
    for j in range(d):
        dxi_hat[:, j] = 1j * ws.k_deriv[j] * xi_hat
    hess_hat = spec[d * d :].reshape((len(pairs), d) + ws.spectral_shape)
    for p, (j, k) in enumerate(pairs):
        hess_hat[p] = 1j * ws.k_deriv[k] * dxi_hat[:, j]
    fields = ws.ifft(spec)
    grad_xi = fields[: d * d]
    jac = grad_xi.reshape((d, d) + grid.shape) + np.eye(d).reshape((d, d) + (1,) * d)
    det = _cofactors(jac)[1]
    if det_dev is not None:
        det_dev[...] = np.max(np.abs(det - 1.0))
    det_min = float(det.min())
    if not det_min > 0.0:
        raise NonInvertible(
            f"map folds: det(I + grad xi) = {det_min:.3e} <= 0 at a grid node "
            "(reduce dt or the reset interval)"
        )
    xi_interp = FieldInterpolator(grid, xi, spectrum=xi_hat)
    grad_interp = None

    x = grid.coordinates().reshape(d, -1)
    xi_n = xi.reshape(d, -1)
    grad_n = grad_xi.reshape(d, d, -1)
    hess = [((2.0 - (j == k)) * h.reshape(d, -1), j, k)
            for h, (j, k) in zip(fields[d * d :].reshape((len(pairs), d) + grid.shape), pairs)]
    b = -xi_n + sum(grad_n[:, j] * xi_n[j] for j in range(d))
    for _ in range(2):
        quad = sum(h * (b[j] * b[k]) for h, j, k in hess)
        b = -(xi_n + sum(grad_n[:, j] * b[j] for j in range(d)) + 0.5 * quad)
    a = x + b

    def residual(pts: np.ndarray, targets: np.ndarray) -> np.ndarray:
        return grid.wrap_centered(pts + xi_interp.at(pts) - targets)

    r = residual(a, x)
    rnorm = np.max(np.abs(r), axis=0)
    taken = np.zeros(rnorm.shape, dtype=bool)  # points damped Newton updated
    for it in range(MAX_UPDATES + 1):
        active = rnorm > tol
        if not active.any():
            break
        if it == MAX_UPDATES:
            raise NonInvertible(
                f"map inversion stalled: residual {rnorm.max():.3e} > tol {tol:.3e} "
                f"after {MAX_UPDATES} updates (reduce dt or the reset interval)"
            )
        a_act = a[:, active]
        x_act = x[:, active]
        r_act = r[:, active]
        rn_old = rnorm[active]
        if grad_interp is None:
            trial = a_act - r_act
            r_trial = residual(trial, x_act)
            rn_new = np.max(np.abs(r_trial), axis=0)
            ratio = rn_new / rn_old
            stalled = (ratio > _FIXED_POINT_RATIO) | (rn_new * ratio ** (MAX_UPDATES - it - 1) > tol)
            if stalled.any():
                trial[:, stalled] = a_act[:, stalled]
                r_trial[:, stalled] = r_act[:, stalled]
                grad_interp = FieldInterpolator(grid, grad_xi, spectrum=spec[: d * d])
        else:
            taken |= active
            jac = grad_interp.at(a_act).reshape(d, d, -1) + np.eye(d)[:, :, None]
            delta = _newton_step(jac, r_act)
            step = 1.0
            trial = a_act - delta
            r_trial = residual(trial, x_act)
            for _ in range(_NEWTON_HALVINGS):
                worse = np.max(np.abs(r_trial), axis=0) > rn_old
                if not worse.any():
                    break
                step *= 0.5
                trial[:, worse] = a_act[:, worse] - step * delta[:, worse]
                r_trial[:, worse] = residual(trial[:, worse], x_act[:, worse])
        a[:, active] = trial
        r[:, active] = r_trial
        rnorm[active] = np.max(np.abs(r_trial), axis=0)
    a -= r * ~taken
    return grid.wrap_centered(a - x).reshape((d,) + grid.shape)


# ---------------------------------------------------------------------------
# ensemble container
# ---------------------------------------------------------------------------


class FlowEnsemble:
    """Forward and inverse map displacements for an ensemble of realizations.

    The representation is the shape of ``xi`` (and of ``beta``), read back
    by the :attr:`mode` property: ``(d,) + grid.shape`` is one core shared
    by every realization (``"shared"``), ``(M, d) + grid.shape`` one core
    per realization (``"general"``). Every operation handles both through
    that leading realization axis. ``shifts`` always has shape ``(M, d)``.

    ``chi`` caches the empirical characteristic function of ``shifts``
    (None until :meth:`shift_multiplier` first builds it); ensembles
    advanced from one parent with the same noise have equal shifts and may
    be handed one ``chi``. ``_integrands`` maps the ``weber`` flag to the
    label array, the last recovery integrand ``J`` built from it on this
    ensemble's inverse cores, and ``J``'s transform (see
    ``recovery._integrand``). ``J``
    is in the core frame: realization ``m``'s integrand is ``J`` (or
    ``J[m]``) translated by ``shifts[m]``, and the ensemble stores no
    translated map ``A_m``. It is ``(c,) + shape`` when map
    and labels are shared, else ``(M, c) + shape``.
    ``_det_dev`` is ``max |det(grad X) - 1|``; like ``beta`` it is 0 at the
    identity, None on an ensemble not yet inverted, and set by
    :meth:`invert` from its fold checks.
    """

    def __init__(self, grid: PeriodicGrid, realizations: int, tol: float | None = None):
        self.grid = grid
        self.m = realizations
        self.tol = DEFAULT_TOL_FACTOR * grid.length if tol is None else tol
        self.reset()

    # -- representation helpers ------------------------------------------

    def _spawn(self) -> "FlowEnsemble":
        new = copy.copy(self)
        new.beta = None
        new.chi = None
        new._integrands = {}
        new._det_dev = None
        return new

    def reset(self) -> None:
        """Start a new label window at the identity map."""
        d = self.grid.dim
        self.xi = np.zeros((d,) + self.grid.shape)
        self.shifts = np.zeros((self.m, d))
        self.beta = np.zeros((d,) + self.grid.shape)
        self.chi = None
        self._integrands = {}
        self._det_dev = 0.0

    @property
    def mode(self) -> str:
        """``"shared"`` or ``"general"``, read from the shape of ``xi``."""
        return "shared" if self.xi.ndim == self.grid.dim + 1 else "general"

    def xi_general(self) -> np.ndarray:
        """Periodic core displacements as a read-only ``(M, d) + shape`` view."""
        return np.broadcast_to(self.xi, (self.m, self.grid.dim) + self.grid.shape)

    # -- advancing ---------------------------------------------------------

    def advanced(
        self,
        u_values: np.ndarray,
        dt: float,
        noise: np.ndarray | None,
        stages: int = 1,
    ) -> "FlowEnsemble":
        """One time step of the forward maps with frozen drift ``u``.

        The drift is frozen and the noise uniform in space, so the step's
        deterministic map ``y -> y + phi(y)`` is the same for every
        realization. ``phi`` is built once on the grid nodes: ``dt u`` for
        ``stages=1`` (the Euler-Maruyama update ``X += dt u(X) + dW``), and
        the two-stage (Heun) rule ``dt/2 (u + u(y + dt u))`` for
        ``stages=2`` (the translated-flow construction ``X = Y + W``). Each
        realization then composes it with its own map:
        ``xi_m += phi(X_m(a))``, one spline evaluation of ``phi`` at every
        core's shifted points (``phi`` itself at the identity core).
        ``noise`` is the pre-scaled uniform increment ``sqrt(2 nu) dW`` per
        realization, or None for a noise-free advance. Returns a new
        ensemble; ``self`` is unchanged (so a step can be re-advanced with
        a corrected drift).
        """
        grid = self.grid
        d = grid.dim
        new = self._spawn()
        if stages == 1:
            phi = dt * u_values
        else:
            k1 = u_values.reshape(d, -1)
            k2 = FieldInterpolator(grid, u_values).at(
                grid.coordinates().reshape(d, -1) + dt * k1
            )
            phi = ((0.5 * dt) * (k1 + k2)).reshape((d,) + grid.shape)
        # one deterministic core while every shift is zero, else one map per
        # realization evaluated at its shifted points
        shared = self.mode == "shared" and not self.shifts.any()
        xi, lead = (self.xi, ()) if shared else (self.xi_general(), (self.m,))
        if shared and not xi.any():  # identity core: phi at the nodes
            new.xi = xi + phi
        else:
            pts = xi.reshape(lead + (d, -1)) + grid.coordinates().reshape(d, -1)
            if not shared:
                pts = pts + self.shifts[:, :, None]
            flat = np.moveaxis(pts, -2, 0).reshape(d, -1)
            incr = FieldInterpolator(grid, phi).at(flat)
            incr = np.moveaxis(incr.reshape((d,) + lead + (-1,)), 0, -2)
            new.xi = xi + incr.reshape(lead + (d,) + grid.shape)
        new.shifts = self.shifts if noise is None else self.shifts + noise
        return new

    # -- inversion ----------------------------------------------------------

    def invert(self) -> None:
        """Compute back-to-labels displacements by :func:`invert_core` on
        the periodic core of each realization (the one core when shared).
        Raises :exc:`NonInvertible` if a core folds or its inversion stalls.
        Keeps the largest ``|det - 1|`` of the cores' fold checks for
        :meth:`max_det_deviation`."""
        self._integrands = {}
        d = self.grid.dim
        cores = self.xi.reshape((-1, d) + self.grid.shape)
        beta = np.empty_like(cores)
        det_dev = np.empty(len(cores))
        for i, core in enumerate(cores):
            beta[i] = invert_core(self.grid, core, self.tol, det_dev[i : i + 1])
        self.beta = beta.reshape(self.xi.shape)
        self._det_dev = float(det_dev.max())

    def _require_beta(self) -> np.ndarray:
        if self.beta is None:
            raise RuntimeError("invert() must run before using the inverse map")
        return self.beta

    # -- derived quantities --------------------------------------------------

    def grad_x_core(self) -> np.ndarray:
        """Forward-map Jacobian ``grad[..., i, j, sp] = d(X_i)/d(a_j)``,
        identity included (uniform shifts do not contribute). Shared mode
        returns one matrix field; general mode one per realization."""
        g = gradient_values(self.xi, workspace(self.grid))
        d = self.grid.dim
        idx = np.arange(d)
        g[(..., idx, idx) + (slice(None),) * d] += 1.0
        return g

    def shift_multiplier(self, ws: SpectralWorkspace) -> np.ndarray:
        """Cached empirical characteristic function of this ensemble's
        uniform shifts (the translate-averaging multiplier)."""
        if self.chi is None:
            self.chi = shift_mean_multiplier(self.shifts, ws)
        return self.chi

    def _jacobian_cofactors(self) -> tuple[np.ndarray, list, np.ndarray]:
        """Forward-map Jacobian with its matrix axes first, and its
        cofactor table and determinant (see :func:`_cofactors`)."""
        d = self.grid.dim
        jac = np.moveaxis(self.grad_x_core(), (-d - 2, -d - 1), (0, 1))
        return (jac,) + _cofactors(jac)

    def max_det_deviation(self) -> float:
        """``max |det(grad X) - 1|`` over grid and realizations, as the
        fold checks of the last :meth:`invert` found it (0 at the identity)."""
        self._require_beta()
        return self._det_dev

    def max_condition_estimate(self) -> float:
        """Frobenius condition number ``||J||_F ||J^{-1}||_F`` of the
        forward-map Jacobian, maximized over the grid (and realizations).
        ``||J^{-1}||_F = ||C||_F / |det|``. Values above ~1e6 signal an
        ill-conditioned label window."""
        jac, cof, det = self._jacobian_cofactors()
        fro2 = np.sum(jac**2, axis=(0, 1))
        cof_fro2 = sum(c**2 for row in cof for c in row)
        return float(np.max(np.sqrt(fro2 * cof_fro2) / np.abs(det)))


def translate_batch(values: np.ndarray, shifts: np.ndarray, ws: SpectralWorkspace) -> np.ndarray:
    """``out[m] = values[m](x - shifts[m])`` for ``values`` ``(M, c) + shape``,
    by the spectral phases of :func:`~slns.spectral.shift_phases`; exact for
    band-limited fields."""
    return ws.ifft(ws.fft(values) * shift_phases(shifts, ws)[:, None])
