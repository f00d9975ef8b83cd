"""Deterministic oracles and analytic test fields.

Everything here is independent of the stochastic solver: a classical
pseudo-spectral Navier-Stokes integrator (integrating-factor RK4 with
2/3-rule dealiasing), the exact periodic Cole-Hopf solution of viscous
Burgers, and closed-form velocity fields.
"""

from __future__ import annotations

import warnings

import numpy as np

from .grid import Field, PeriodicGrid
from .spectral import divergence_values, project_coeffs, workspace

_TWO_PI = 2.0 * np.pi


# ---------------------------------------------------------------------------
# analytic fields
# ---------------------------------------------------------------------------


def taylor_green_2d(grid: PeriodicGrid, amplitude: float = 1.0) -> Field:
    """``(cos kx sin ky, -sin kx cos ky)`` with ``k = 2 pi / L``."""
    if grid.dim != 2:
        raise ValueError("taylor_green_2d needs a 2D grid")
    k = _TWO_PI / grid.length
    x, y = grid.coordinates()
    vals = amplitude * np.stack(
        [np.cos(k * x) * np.sin(k * y), -np.sin(k * x) * np.cos(k * y)]
    )
    return Field(grid, vals)


def taylor_green_energy(length: float, amplitude: float = 1.0) -> float:
    """Kinetic energy ``0.5 ||u||_2^2`` of the 2D cellular field: each
    component integrates to ``L^2/4``, so the energy is ``L^2 A^2 / 4``."""
    return length**2 * amplitude**2 / 4.0


def taylor_green_decay_rate(length: float, nu: float) -> float:
    """The 2D cellular field is a Stokes eigenmode: ``u(t) = e^{-rt} u0``
    with ``r = 2 nu (2 pi / L)^2`` (so energy decays at rate ``2r``)."""
    return 2.0 * nu * (_TWO_PI / length) ** 2


def taylor_green_3d(grid: PeriodicGrid, amplitude: float = 1.0) -> Field:
    if grid.dim != 3:
        raise ValueError("taylor_green_3d needs a 3D grid")
    k = _TWO_PI / grid.length
    x, y, z = grid.coordinates()
    vals = amplitude * np.stack(
        [
            np.sin(k * x) * np.cos(k * y) * np.cos(k * z),
            -np.cos(k * x) * np.sin(k * y) * np.cos(k * z),
            np.zeros_like(x),
        ]
    )
    return Field(grid, vals)


def abc_flow(grid: PeriodicGrid, a: float = 1.0, b: float = 1.0, c: float = 1.0) -> Field:
    """Arnold-Beltrami-Childress field; an Euler steady state with
    ``curl u = u`` when ``L = 2 pi``."""
    if grid.dim != 3:
        raise ValueError("abc_flow needs a 3D grid")
    k = _TWO_PI / grid.length
    x, y, z = grid.coordinates()
    vals = np.stack(
        [
            a * np.sin(k * z) + c * np.cos(k * y),
            b * np.sin(k * x) + a * np.cos(k * z),
            c * np.sin(k * y) + b * np.cos(k * x),
        ]
    )
    return Field(grid, vals)


def sine_mode(grid: PeriodicGrid, mode: int = 1, component: int = 0, amplitude: float = 1.0) -> Field:
    """Vector field with one sine mode along one axis in one component;
    ``mode`` must be a nonzero whole number, so the field is periodic."""
    if not (float(mode).is_integer() and mode != 0 and component in range(grid.dim)):
        raise ValueError(f"sine_mode needs a nonzero whole mode and 0 <= component < {grid.dim}, "
                         f"got mode={mode!r}, component={component!r}")
    k = _TWO_PI * mode / grid.length
    coords = grid.coordinates()
    vals = np.zeros((grid.dim,) + grid.shape)
    vals[int(component)] = amplitude * np.sin(k * coords[0])
    return Field(grid, vals)


def random_band_limited(
    grid: PeriodicGrid,
    kmax: int = 4,
    seed: int = 0,
    components: int | None = None,
    divergence_free: bool = False,
    amplitude: float = 1.0,
) -> Field:
    """Seeded smooth random field with modes ``0 < |k| <= kmax``.

    Coefficients are drawn per integer wavevector in a fixed enumeration,
    so the same ``(seed, kmax)`` describes the same continuous field on
    every resolution (essential for refinement studies). The root-mean-
    square value is normalized to ``amplitude``; divergence-free fields
    are Leray-projected mode by mode before normalization.
    """
    rng = np.random.default_rng(seed)
    c = components if components is not None else (grid.dim if divergence_free else 1)
    if divergence_free and c != grid.dim:
        raise ValueError("divergence-free fields need dim components")
    d = grid.dim
    coords = grid.coordinates()
    scale = _TWO_PI / grid.length

    # one representative per conjugate pair: first nonzero entry positive
    waves = []
    rng_range = range(-kmax, kmax + 1)
    for kvec in np.ndindex(*((2 * kmax + 1,) * d)):
        k = np.array([rng_range[i] for i in kvec], dtype=float)
        if not k.any() or k @ k > kmax**2 + 1e-9:
            continue
        nz = k[k != 0]
        if nz[0] < 0:
            continue
        waves.append(k)

    vals = np.zeros((c,) + grid.shape)
    ms_total = 0.0
    for k in waves:
        amps = rng.standard_normal(c)
        phase = rng.uniform(0.0, _TWO_PI)
        if divergence_free:
            # a single phase per mode keeps k . a = 0 meaningful pointwise
            khat = k / np.linalg.norm(k)
            amps = amps - khat * (khat @ amps)
        wave = np.cos(scale * np.tensordot(k, coords, axes=(0, 0)) + phase)
        for j in range(c):
            vals[j] += amps[j] * wave
        ms_total += 0.5 * float(amps @ amps)
    if ms_total > 0:
        vals *= amplitude / np.sqrt(ms_total)
    return Field(grid, vals)


GENERATORS = {
    "taylor_green_2d": taylor_green_2d,
    "taylor_green_3d": taylor_green_3d,
    "abc_flow": abc_flow,
    "sine_mode": sine_mode,
    "random_band_limited": random_band_limited,
}


def analytic_field(name: str, grid: PeriodicGrid, **params) -> Field:
    """Field generator registry used by configs and the CLI."""
    try:
        gen = GENERATORS[name]
    except KeyError:
        raise ValueError(
            f"unknown field {name!r}; available: {sorted(GENERATORS)}"
        ) from None
    return gen(grid, **params)


# ---------------------------------------------------------------------------
# pseudo-spectral Navier-Stokes (integrating factor RK4, 2/3 dealiasing)
# ---------------------------------------------------------------------------


def spectral_ns_run(u0: Field, nu: float, dt: float, t_end, forcing=None):
    """Reference incompressible solver on the same grid as ``u0``.

    Advances ``du/dt = -P[(u.grad)u] + nu Lap u + P f`` with the viscous
    term integrated exactly per mode and returns the state at ``t_end``,
    or, when ``t_end`` is a sorted sequence of times, the list of states at
    those times from one integration. Each interval ``D`` between
    consecutive output times (the first from 0) takes ``ceil(D / dt)``
    equal steps; the forcing is evaluated at absolute time. The state at
    time 0 is ``u0`` itself.

    The 2/3-rule mask keeps the modes with ``|k_j| < kcut`` on every axis,
    ``kcut = (2/3) (2 pi / L) (n // 2)``. Its outermost retained layer, the
    "cutoff shell", is the set of kept modes with
    ``kcut - 2 pi / L <= max_j |k_j| < kcut``. Warns when the final energy
    in that shell exceeds 1e-8 of the total, which means the resolution is
    too coarse to trust.
    """
    grid = u0.grid
    d = grid.dim
    ws = workspace(grid)
    if np.max(np.abs(divergence_values(u0.values, ws))) > 1e-8 * max(u0.max_norm(), 1e-300):
        raise ValueError("initial data for the reference solver must be divergence-free")

    kcut = (2.0 / 3.0) * (_TWO_PI / grid.length) * (grid.n // 2)
    kabs_max = np.abs(ws.k_full[0])
    for j in range(1, d):
        kabs_max = np.maximum(kabs_max, np.abs(ws.k_full[j]))
    mask = kabs_max < kcut
    shell = mask & (kabs_max >= kcut - _TWO_PI / grid.length)

    def nonlinear(coeffs: np.ndarray, t: float) -> np.ndarray:
        u = ws.ifft(coeffs)
        gradu = [ws.ifft(1j * ws.k_deriv[j] * coeffs) for j in range(d)]
        adv = np.zeros_like(u)
        for j in range(d):
            adv += u[j] * gradu[j]
        out = -ws.fft(adv)
        if forcing is not None:
            out = out + ws.fft(np.asarray(forcing(grid.coordinates(), t)))
        out *= mask
        return project_coeffs(out, ws)

    times = np.atleast_1d(np.asarray(t_end, dtype=np.float64))
    if not (np.all(np.isfinite(times)) and times[0] >= 0 and np.all(np.diff(times) >= 0)):
        raise ValueError("output times must be finite, non-negative and sorted")
    coeffs = project_coeffs(ws.fft(u0.values), ws)
    out = []
    t0 = 0.0
    for t_out in times:
        span = t_out - t0
        steps = max(1, int(np.ceil(span / dt - 1e-12))) if span > 0 else 0
        h = span / max(steps, 1)
        e_half = np.exp(-nu * ws.k2_full * h / 2.0)
        e_full = e_half**2
        for i in range(steps):
            t = t0 + i * h
            k1 = nonlinear(coeffs, t)
            k2 = nonlinear(e_half * (coeffs + 0.5 * h * k1), t + 0.5 * h)
            k3 = nonlinear(e_half * coeffs + 0.5 * h * k2, t + 0.5 * h)
            k4 = nonlinear(e_full * coeffs + h * e_half * k3, t + h)
            coeffs = e_full * coeffs + (h / 6.0) * (
                e_full * k1 + 2.0 * e_half * (k2 + k3) + k4
            )
        out.append(u0.copy() if t_out == 0 else Field(grid, ws.ifft(coeffs)))
        t0 = t_out

    total = np.sum(np.abs(coeffs) ** 2)
    shell_energy = np.sum(np.abs(coeffs[..., shell]) ** 2)
    if total > 0 and shell_energy > 1e-8 * total:
        warnings.warn(
            "energy at the dealiasing cutoff exceeds 1e-8 of total; increase resolution",
            stacklevel=2,
        )
    return out if np.ndim(t_end) else out[0]


def spectral_resample(f: Field, n_to: int) -> Field:
    """Band-limited restriction/prolongation between grid resolutions.

    Modes with ``|k| < n_min/2`` are copied (the Nyquist shell is dropped);
    exact on fields resolved by both grids.
    """
    grid = f.grid
    if n_to == grid.n:
        return f.copy()
    to_grid = PeriodicGrid(grid.dim, n_to, grid.length)
    axes = tuple(range(1, 1 + grid.dim))
    coeffs = np.fft.fftn(f.values, axes=axes)
    half = min(grid.n, n_to) // 2
    keep = np.r_[0:half, -(half - 1) : 0]  # frequencies -(h-1)..h-1
    out = np.zeros((f.components,) + to_grid.shape, dtype=complex)
    src_ix = np.ix_(np.arange(f.components), *([keep % grid.n] * grid.dim))
    dst_ix = np.ix_(np.arange(f.components), *([keep % n_to] * grid.dim))
    out[dst_ix] = coeffs[src_ix]
    vals = np.real(np.fft.ifftn(out, axes=axes)) * (n_to**grid.dim / grid.num_points)
    return Field(to_grid, vals)


# ---------------------------------------------------------------------------
# exact viscous Burgers via Cole-Hopf
# ---------------------------------------------------------------------------


def cole_hopf_burgers(
    psi0_samples: np.ndarray,
    length: float,
    nu: float,
    t: float,
    x_points: np.ndarray,
) -> np.ndarray:
    """Exact 1D periodic Burgers solution for gradient data ``u0 = d(psi0)/dx``.

    ``psi0_samples`` are uniform samples of the potential on ``[0, L)``;
    their count is a valid :class:`PeriodicGrid` size. The substitution
    ``theta = exp(-psi / (2 nu))`` turns Burgers into the heat equation;
    ``theta`` is evolved exactly mode by mode and the series is evaluated
    at ``x_points`` with the mode count chosen so the truncation error
    sits below rounding. Rounding where ``theta`` is small sets the floor,
    about ``eps exp(r)`` with ``r = (max psi0 - min psi0) / (2 nu)``: for the
    unit sine mode (n = 256) the max error is ~1e-10 at nu = 0.1, 8e-7 at
    nu = 0.05 and 0.3 at nu = 0.03. Raises ``ValueError`` when that floor
    exceeds 1e-6 (for the unit sine mode, below nu ~ 0.045).
    """
    if nu <= 0:
        raise ValueError("Cole-Hopf needs nu > 0")
    psi0_samples = np.asarray(psi0_samples, dtype=np.float64)
    if psi0_samples.ndim != 1:
        raise ValueError("psi0_samples must be one-dimensional")
    r = np.ptp(psi0_samples) / (2.0 * nu)
    if r > np.log(1e-6 / np.finfo(np.float64).eps):
        raise ValueError(f"Cole-Hopf rounding error eps*exp({r:.3g}) exceeds 1e-6 at nu={nu:g}")
    x_points = np.atleast_1d(np.asarray(x_points, dtype=np.float64))

    # Upsample the potential spectrally, then exponentiate on a grid fine
    # enough that exp(-psi/2nu) is resolved to machine precision.
    n0 = psi0_samples.size
    psi0 = Field(PeriodicGrid(1, n0, length), psi0_samples)
    n_fine = max(4 * n0, 512)
    while True:
        theta = np.exp(-spectral_resample(psi0, n_fine).values[0] / (2.0 * nu))
        theta_hat = np.fft.rfft(theta) / n_fine
        tail = np.max(np.abs(theta_hat[-max(2, n_fine // 16):]))
        if tail <= 1e-13 * np.max(np.abs(theta_hat)) or n_fine >= 1 << 17:
            break
        n_fine *= 2

    k = _TWO_PI * np.arange(theta_hat.size) / length
    decayed = theta_hat * np.exp(-nu * k**2 * t)
    # Modes below ~100x the FFT rounding floor carry no information and
    # would contaminate the k-weighted derivative series; drop them.
    keep = np.abs(decayed) > 1e-14 * np.max(np.abs(decayed))
    keep[0] = True
    k = k[keep]
    decayed = decayed[keep]

    phase = np.exp(1j * np.outer(x_points, k))
    weights = np.where(k > 0, 2.0, 1.0)  # rfft half-spectrum duplication
    theta_x = np.real(phase * (1j * k) * decayed * weights).sum(axis=1)
    theta_v = np.real(phase * decayed * weights).sum(axis=1)
    return -2.0 * nu * theta_x / theta_v


__all__ = [
    "abc_flow",
    "analytic_field",
    "cole_hopf_burgers",
    "random_band_limited",
    "sine_mode",
    "spectral_ns_run",
    "spectral_resample",
    "taylor_green_2d",
    "taylor_green_3d",
    "taylor_green_decay_rate",
    "taylor_green_energy",
]
