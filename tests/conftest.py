import numpy as np
import pytest
from scipy import ndimage

from slns.flowmap import translate_batch
from slns.grid import Field, PeriodicGrid
from slns.interp import FieldInterpolator
from slns.spectral import gradient_values, laplacian_values, workspace


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

    def counted(self, grid, values, *, spectrum=None):
        built.append(values)
        original(self, grid, values, spectrum=spectrum)

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
        xi_interp = FieldInterpolator(grid, xi)
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


def finite_difference_burgers(
    u0_samples: np.ndarray,
    length: float,
    nu: float,
    t: float,
    n_fine: int = 1024,
    dt: float | None = None,
) -> np.ndarray:
    """Fine-grid finite-difference Burgers integrator (RK4 in time,
    4th-order central stencils, conservative form). Independent of every
    spectral code path; exists to certify the Cole-Hopf oracle.

    Returns the solution at ``t`` sampled back at the ``u0`` grid points.
    """
    u0_samples = np.asarray(u0_samples, dtype=np.float64)
    if nu <= 0:
        raise ValueError("the finite-difference oracle needs nu > 0")
    n0 = u0_samples.size
    if n_fine % n0 != 0:
        raise ValueError("n_fine must be a multiple of the input resolution")
    ratio = n_fine // n0
    if ratio == 1:
        u = u0_samples.copy()
    else:
        # cubic-convolution upsampling keeps the prolongation error below
        # the stencil error without touching any FFT machinery
        idx = (np.arange(n_fine) / ratio)[None]
        u = ndimage.map_coordinates(
            ndimage.spline_filter(u0_samples, order=3, mode="grid-wrap"),
            idx,
            order=3,
            mode="grid-wrap",
            prefilter=False,
        )

    h = length / n_fine
    if dt is None:
        dt = min(0.3 * h / max(np.max(np.abs(u)), 1e-12), 0.25 * h**2 / nu)
    steps = max(1, int(np.ceil(t / dt)))
    dt = t / steps

    def dx4(v: np.ndarray) -> np.ndarray:
        return (
            -np.roll(v, -2) + 8 * np.roll(v, -1) - 8 * np.roll(v, 1) + np.roll(v, 2)
        ) / (12 * h)

    def lap4(v: np.ndarray) -> np.ndarray:
        return (
            -np.roll(v, -2)
            + 16 * np.roll(v, -1)
            - 30 * v
            + 16 * np.roll(v, 1)
            - np.roll(v, 2)
        ) / (12 * h**2)

    def rhs(v: np.ndarray) -> np.ndarray:
        return -dx4(0.5 * v * v) + nu * lap4(v)

    for _ in range(steps):
        k1 = rhs(u)
        k2 = rhs(u + 0.5 * dt * k1)
        k3 = rhs(u + 0.5 * dt * k2)
        k4 = rhs(u + dt * k3)
        u = u + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return u[::ratio].copy()


def spde_residual(
    grid: PeriodicGrid,
    alpha_prev: np.ndarray,
    alpha_next: np.ndarray,
    u_values: np.ndarray,
    noise: np.ndarray,
    nu: float,
    dt: float,
) -> np.ndarray:
    """Discrete residual of the back-to-labels evolution equation.

    Checks, per realization, how well the stored maps satisfy

        dA + (u . grad) A dt - nu Lap A dt + sqrt(2 nu) (grad A) dW = 0

    over one step, with ``A = x + alpha`` and ``noise = sqrt(2 nu) dW``.
    Both ``alpha`` arrays must come from the same label window. Returns the
    grid L2 norm of the residual for each realization.
    """
    if alpha_prev.shape != alpha_next.shape:
        raise ValueError("alpha arrays disagree in shape")
    ws = workspace(grid)
    d = grid.dim
    grad_a = gradient_values(alpha_prev, ws)  # (M, d, d, spatial)
    lap_a = laplacian_values(alpha_prev, ws)
    advect = np.einsum("mij...,j...->mi...", grad_a, u_values)
    stretch = np.einsum("mij...,mj->mi...", grad_a, noise)
    noise_uniform = noise[(...,) + (None,) * d]
    res = (
        (alpha_next - alpha_prev)
        + dt * (u_values[None] + advect - nu * lap_a)
        + (noise_uniform + stretch)
    )
    return np.sqrt(np.sum(res**2, axis=tuple(range(1, res.ndim))) * grid.cell_volume)
