"""Time-stepping driver for the stochastic Lagrangian representation.

One step of the scheme, for the current label data ``u0`` (velocity at the
start of the label window):

1. freeze the drift: from the second step on, the velocity extrapolated to
   the half step, ``1.5 u^n - 0.5 u^{n-1}``;
2. advance every realization's forward map by one step of
   ``dX = u dt + sqrt(2 nu) dW`` with the two-stage rule along the
   characteristic; the noise is uniform in space, so the step's
   deterministic map is built once on the grid nodes and composed with
   every realization's map by one spline evaluation;
3. invert to the back-to-labels maps;
4. recover the new velocity with the equation's formula (transported
   average for Burgers, projected Weber average for incompressible flow,
   Helmholtz-filtered Weber pair for the alpha model);
5. every ``reset_interval`` steps, replace the label data with the current
   velocity and restart the maps at the identity (the semigroup property
   keeps the composition meaningful while the inversion stays
   well-conditioned). ``u^{n-1}`` is a grid velocity, not a map, so it
   carries across the reset.

The drift feeds the SDE whose ensemble average defines the drift (a
McKean fixed point). Two-time-level semi-Lagrangian schemes take the
half-step drift from the velocity history instead of a predictor
(Staniforth & Cote, Mon. Wea. Rev. 119, 1991, section 3), so every step
after the first advances, inverts and recovers once. The first step has
no ``u^{-1}``: it runs two Picard passes, a predictor by the backend's own
rule (one-stage Euler-Maruyama for ``direct_sde``, the two-stage rule for
``translated_flow``) with the drift ``u^0``, then a corrector by the
two-stage rule with the drift ``(u^0 + u_new) / 2``.

Viscosity enters through the noise ``sqrt(2 nu) dW`` alone; no diffusion
operator is applied to the velocity. Where every realization has the one
core and shared labels, the noise's whole effect on the recovered mean is
known in closed form, the heat multiplier ``exp(-nu |k|^2 tau)`` on the
core-frame integrand (tau the time since the last reset), so such a step
has no Monte Carlo error and reports a ``probe_se`` of 0.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import numbers
import time as _time
from dataclasses import dataclass, field as dataclass_field, fields, replace
from pathlib import Path

import numpy as np

from .errors import CFLViolation, ConfigError, NonFiniteVelocity
from .flowmap import DEFAULT_TOL_FACTOR, FlowEnsemble
from .grid import Field, PeriodicGrid
from .recovery import (
    burgers_velocity,
    circulation,
    exact_mean,
    forcing_increment,
    probe_spread,
    realization_field,
    transported_vorticity_2d,
    weber_velocity,
)
from .reference import (
    GENERATORS,
    analytic_field,
    cole_hopf_burgers,
    spectral_ns_run,
    spectral_resample,
    taylor_green_2d,
    taylor_green_decay_rate,
)
from .snapshots import write_snapshot
from .spectral import curl_values, divergence_values, helmholtz_values, workspace
from .wiener import WienerEnsemble

EQUATIONS = ("navier_stokes", "burgers", "euler", "lans_alpha")
BACKENDS = ("direct_sde", "translated_flow")
FORCINGS = ("steady_taylor_green", "constant")
ORACLES = ("cole_hopf", "spectral_ns", "analytic")  # see oracle_solution
CFL_MAX = 0.5  # a step fails when dt max|u| / h exceeds this
# fields that accept one value, the one every run uses; the spline is cubic,
# the inversion runs on one thread and the first step runs two passes
PINNED = {"interpolation": "cubic", "workers": 1, "picard_iters": 2}
CIRCULATION_REALIZATIONS = 2  # realizations whose circulation a probe reports
PROBE_FRACTIONS = (0.251, 0.503, 0.757)  # probe points, as fractions of L on every axis
# a value whose default is a bool, int, float or str must be one of these;
# a bool only where the default is a bool
_FIELD_TYPES = {bool: bool, int: numbers.Integral, float: numbers.Real, str: str}

DIAG_COLUMNS = (
    "step",
    "time",
    "energy",
    "enstrophy",
    "max_vorticity",
    "max_divergence",
    "max_det_dev",
    "circulation_defect",
    "probe_se",
    "probe_se_accum",
)
CIRCULATION_COLUMNS = ("time", "realization", "gamma_initial", "gamma_transported", "defect")


@dataclass
class SolverConfig:
    """Full description of one run; every field has a validated default.

    ``interpolation``, ``workers`` and ``picard_iters`` accept only their
    :data:`PINNED` value (see the module docstring for the first step's
    two passes). The initial field is built and checked once, with each
    ``initial_params`` value of the type of the generator's keyword
    default; :meth:`initial_field` returns copies.
    ``substeps`` refines the Brownian paths so runs at coarser ``dt`` can
    share noise with finer ones (common random numbers).
    """

    equation: str = "navier_stokes"
    dim: int = 2
    n: int = 64
    length: float = 2.0 * np.pi
    nu: float = 0.05
    alpha: float = 0.0
    dt: float = 5e-3
    t_end: float = 0.5
    realizations: int = 64
    reset_interval: int = 1
    picard_iters: int = 2
    seed: int = 0
    backend: str = "direct_sde"
    interpolation: str = "cubic"
    inversion_tol_factor: float = DEFAULT_TOL_FACTOR
    workers: int = 1
    substeps: int = 1
    initial: str = "taylor_green_2d"
    initial_params: dict = dataclass_field(default_factory=dict)
    forcing: str | None = None
    forcing_params: dict = dataclass_field(default_factory=dict)
    snapshot_interval: int = 0
    circulation_curve: dict | None = None
    output_dir: str | None = None

    def __post_init__(self) -> None:
        for f in fields(self):
            setattr(self, f.name, _typed(f.name, f.default, getattr(self, f.name)))
        if self.equation not in EQUATIONS:
            raise ConfigError(f"equation must be one of {EQUATIONS}, got {self.equation!r}")
        if self.backend not in BACKENDS:
            raise ConfigError(f"backend must be one of {BACKENDS}, got {self.backend!r}")
        for name in ("length", "nu", "alpha", "dt", "t_end", "inversion_tol_factor"):
            if not np.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        if self.equation == "euler" and self.nu != 0.0:
            raise ConfigError("equation=euler requires nu=0 (noise-free run)")
        if self.nu < 0:
            raise ConfigError("nu must be >= 0")
        if self.alpha < 0:
            raise ConfigError("alpha must be >= 0")
        if self.alpha != 0 and self.equation != "lans_alpha":
            raise ConfigError(f"alpha is read only by equation=lans_alpha, not {self.equation}")
        if self.dt <= 0 or self.t_end < 0:
            raise ConfigError("dt must be positive and t_end nonnegative")
        if self.inversion_tol_factor <= 0:
            raise ConfigError("inversion_tol_factor must be positive")
        for name, value in PINNED.items():
            if getattr(self, name) != value:
                raise ConfigError(f"{name} must be {value!r}, got {getattr(self, name)!r}")
        for name in ("realizations", "reset_interval", "substeps"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.seed < 0 or self.snapshot_interval < 0:
            raise ConfigError("seed and snapshot_interval must be >= 0")
        steps = self.t_end / self.dt
        if abs(steps - round(steps)) > 1e-9 * max(1.0, steps):
            raise ConfigError("t_end must be an integer multiple of dt")
        try:
            PeriodicGrid(self.dim, self.n, self.length)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        # a plain attribute, so fields(), equality and effective.cfg ignore it
        self._initial = self._checked_initial_field()
        if self.forcing is not None or self.forcing_params:
            make_forcing(self.forcing, self)
        if self.circulation_curve is not None:
            named_curve(self)

    @property
    def num_steps(self) -> int:
        return int(round(self.t_end / self.dt))

    def grid(self) -> PeriodicGrid:
        return PeriodicGrid(self.dim, self.n, self.length)

    def initial_field(self) -> Field:
        """A copy of the initial velocity, built and checked with the config."""
        return self._initial.copy()

    def _checked_initial_field(self) -> Field:
        """The initial velocity; each ``initial_params`` value must have the
        type of the generator's keyword default, and the field ``dim``
        components and, unless the equation is Burgers, no divergence."""
        grid = self.grid()
        generator = GENERATORS.get(self.initial)
        keywords = inspect.signature(generator).parameters if generator else {}
        for key, value in self.initial_params.items():
            if key in keywords:
                _typed(f"[initial] {key}", keywords[key].default, value)
        try:
            u0 = analytic_field(self.initial, grid, **self.initial_params)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"initial field {self.initial!r}: {exc}") from None
        if u0.components != self.dim:
            raise ConfigError(f"initial field {self.initial!r} must be a velocity "
                              f"({self.dim} components), got {u0.components}")
        if self.equation != "burgers":
            div0 = np.max(np.abs(divergence_values(u0.values, workspace(grid))))
            if div0 > 1e-8 * max(u0.max_norm(), 1e-300):
                raise ConfigError(f"initial field {self.initial!r} must be divergence-free "
                                  f"for equation={self.equation}")
        return u0

    def forcing_fn(self):
        if self.forcing is None:
            return None
        return make_forcing(self.forcing, self)


def _typed(name: str, default, value):
    """``value`` as the type of ``default`` when that is a bool, int, float
    or str (a value not of that type is a ConfigError), else as it is."""
    kind = type(default)
    if kind not in _FIELD_TYPES:
        return value
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, _FIELD_TYPES[kind]):
        raise ConfigError(f"{name} must be of type {kind.__name__}, got {value!r}")
    return kind(value)


# ---------------------------------------------------------------------------
# forcing registry
# ---------------------------------------------------------------------------


def _finite_numbers(value, shape: tuple, what: str) -> np.ndarray:
    """``value`` as a float64 array of ``shape``; anything but finite
    numbers of that shape is a ConfigError."""
    try:
        arr = np.asarray(value)
        arr = arr.reshape(shape) if arr.shape == () and shape == (1,) else arr  # 1D: one number
        ok = arr.dtype.kind in "iuf" and arr.shape == shape and np.isfinite(arr).all()
    except ValueError:  # ragged
        ok = False
    if not ok:
        count = "a finite number" if shape == () else f"{shape[0]} finite numbers"
        raise ConfigError(f"{what} must be {count}, got {value!r}")
    return arr.astype(np.float64)


def make_forcing(name: str, config: SolverConfig):
    """The forcing ``f(points, t)`` named in :data:`FORCINGS`; a parameter
    it does not read, or one that is not finite numbers, is a ConfigError."""
    if name not in FORCINGS:
        raise ConfigError(f"forcing must be one of {FORCINGS}, got {name!r}")
    params = dict(config.forcing_params)
    if name == "steady_taylor_green":
        # Balances viscous decay of the 2D cellular field so it is a
        # steady solution: f = -nu * Lap(u0) = 2 nu (2pi/L)^2 u0.
        if config.dim != 2:
            raise ConfigError(f"steady_taylor_green forcing needs dim = 2, got dim = {config.dim}")
        amp = float(_finite_numbers(params.pop("amplitude", 1.0), (), "[forcing] amplitude"))
        k = 2.0 * np.pi / config.length
        coef = 2.0 * config.nu * k**2 * amp

        def f(points, t):
            x, y = points[0], points[1]
            return coef * np.stack([np.cos(k * x) * np.sin(k * y), -np.sin(k * x) * np.cos(k * y)])

    else:
        vec = _finite_numbers(params.pop("vector", [0.0] * config.dim), (config.dim,),
                              "[forcing] vector")

        def f(points, t):
            shape = points.shape[1:]
            return np.broadcast_to(vec.reshape((config.dim,) + (1,) * len(shape)), (config.dim,) + shape)

    if params:
        raise ConfigError(f"[forcing] {name} does not read {sorted(params)}")
    return f


def named_curve(config: SolverConfig):
    """The circulation probe's circle ``s -> center + radius (cos 2 pi s,
    sin 2 pi s)`` from ``config.circulation_curve``, whose only keys are
    ``center`` (default the box centre) and ``radius`` (default 1)."""
    if config.dim != 2:
        raise ConfigError(f"a [circulation] curve needs dim = 2, got dim = {config.dim}")
    spec = dict(config.circulation_curve)
    half = config.length / 2.0
    center = _finite_numbers(spec.pop("center", [half, half]), (2,), "[circulation] center")
    radius = float(_finite_numbers(spec.pop("radius", 1.0), (), "[circulation] radius"))
    if spec:
        raise ConfigError(f"[circulation] does not read {sorted(spec)}")

    def curve(s):
        ang = 2.0 * np.pi * np.asarray(s)
        return np.stack([center[0] + radius * np.cos(ang), center[1] + radius * np.sin(ang)])

    return curve


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------


class Diagnostics:
    """Per-step observable series with a fixed column order."""

    def __init__(self):
        self.rows: list[dict] = []

    def append(self, **kw) -> None:
        self.rows.append(kw)

    def column(self, name: str) -> np.ndarray:
        return np.array([r[name] for r in self.rows])

    def __len__(self) -> int:
        return len(self.rows)


def _fmt(v) -> str:
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return f"{float(v):.17g}"


def write_csv(path: str | Path, columns, rows) -> None:
    """A header line, then one line per dict in ``rows`` with its
    ``columns`` cells: integers as plain digits, floats as ``.17g``
    (they parse back to the same float64)."""
    with open(path, "w") as fh:
        fh.write(",".join(columns) + "\n")
        for r in rows:
            fh.write(",".join(_fmt(r[c]) for c in columns) + "\n")


@dataclass
class RunResult:
    config: SolverConfig
    velocity: Field
    diagnostics: Diagnostics
    vorticity: Field | None = None
    momentum: Field | None = None
    wall_times: list = dataclass_field(default_factory=list)
    artifacts: dict = dataclass_field(default_factory=dict)

    @property
    def final_time(self) -> float:
        return self.config.num_steps * self.config.dt


# ---------------------------------------------------------------------------
# the solver
# ---------------------------------------------------------------------------


class StochasticSolver:
    """Owns the velocity, label data, flow ensemble and diagnostics."""

    def __init__(self, config: SolverConfig):
        self.config = config
        self.grid = config.grid()
        self.ws = workspace(self.grid)
        u0 = config.initial_field()

        self.ensemble = WienerEnsemble(config.realizations, config.dim, config.seed, config.substeps)
        self.flow = FlowEnsemble(self.grid, config.realizations,
                                 tol=config.inversion_tol_factor * config.length, nu=config.nu)

        # Label data: the transported quantity on the current window.
        # For the alpha model the labels carry the momentum v and the drift
        # is the filtered velocity u = (1 - alpha^2 Lap)^{-1} v; everywhere
        # else momentum and velocity coincide.
        self.labels_u = u0.values
        self.v_values = self.labels_u
        self.u_values = self._drift_from_momentum(self.v_values)
        self._u_prev = None  # the velocity one step back, once there is one
        self.pin_mean = config.equation != "burgers" or config.dim == 1
        self.mean_target = self.labels_u.mean(axis=tuple(range(1, self.labels_u.ndim)))

        # 2D vorticity is transported from its labels; forced windows add the
        # forcing to the label velocity only, so they report its curl instead
        self.forcing = config.forcing_fn()
        self.labels_omega = self.omega_values = None
        if config.dim == 2 and config.equation != "burgers" and self.forcing is None:
            self.labels_omega = curl_values(self.labels_u, self.ws)[np.newaxis]
            self.omega_values = self.labels_omega.copy()

        self.curve = named_curve(config) if config.circulation_curve is not None else None
        self.probes = np.tile(np.array(PROBE_FRACTIONS) * config.length, (config.dim, 1))
        self.diagnostics = Diagnostics()
        self.circulation_rows: list[dict] = []
        self.wall_times: list[float] = []
        self.t = 0.0
        self.step_index = 0
        self._se_closed_sq = 0.0  # the squared SE of every window closed so far
        self._stages = 1 if config.backend == "direct_sde" else 2

    # -- helpers -----------------------------------------------------------

    def _drift_from_momentum(self, v_values: np.ndarray) -> np.ndarray:
        if self.config.equation == "lans_alpha" and self.config.alpha > 0.0:
            return helmholtz_values(v_values, self.config.alpha, self.ws)
        return v_values

    def _recover(self, flow: FlowEnsemble, label_values: np.ndarray) -> np.ndarray:
        cfg = self.config
        if cfg.equation == "burgers":
            out = burgers_velocity(flow, label_values)
        else:
            out = weber_velocity(flow, label_values)
        if self.pin_mean:
            axes = tuple(range(1, out.ndim))
            out += (self.mean_target - out.mean(axis=axes)).reshape(
                (-1,) + (1,) * len(axes)
            )
        return out

    def _max_speed(self, u_values: np.ndarray) -> float:
        """``max |u|``; a NaN or infinity ends the step with a typed error
        (it would pass the CFL comparison and fail later in interpolation)."""
        umax = float(np.max(np.abs(u_values)))
        if not np.isfinite(umax):
            raise NonFiniteVelocity(
                f"step {self.step_index}: velocity is not finite (|u|max={umax})"
            )
        return umax

    def velocity_field(self) -> Field:
        return Field(self.grid, self.u_values.copy())

    def momentum_field(self) -> Field:
        return Field(self.grid, self.v_values.copy())

    def vorticity_field(self) -> Field | None:
        if self.omega_values is None:
            return None
        return Field(self.grid, self.omega_values.copy())

    # -- one step ----------------------------------------------------------

    def step(self) -> None:
        cfg = self.config
        t_start = _time.perf_counter()
        umax = self._max_speed(self.u_values)
        cfl = cfg.dt * umax / self.grid.spacing
        if cfl > CFL_MAX:
            raise CFLViolation(
                f"step {self.step_index}: CFL {cfl:.3f} exceeds {CFL_MAX} "
                f"(|u|max={umax:.3e}); reduce dt"
            )

        noise = None
        if cfg.nu > 0.0:
            dw = self.ensemble.increments(self.step_index, cfg.dt)
            noise = np.sqrt(2.0 * cfg.nu) * dw

        # label data of the forced formula: u0 plus the left-point sum of
        # (grad^T X) f(X) (Weber) or f(X) (Burgers) over the window so far;
        # every pass pins its mean to the one at t + dt
        label_u = self.labels_u
        if self.forcing is not None:
            inc = forcing_increment(self.flow, self.forcing, self.t, cfg.equation != "burgers")
            label_u = self.labels_u + cfg.dt * inc
            f_nodes = np.asarray(self.forcing(self.grid.coordinates(), self.t))
            self.mean_target = self.mean_target + cfg.dt * f_nodes.mean(
                axis=tuple(range(1, 1 + self.grid.dim))
            )

        # one pass along the drift extrapolated to the half step; the first
        # step has no u^{n-1} and runs a predictor and a corrector pass
        if self._u_prev is None:
            passes, drift, stages = 2, self.u_values, self._stages
        else:
            passes, drift, stages = 1, 1.5 * self.u_values - 0.5 * self._u_prev, 2
        for _ in range(passes):
            trial = self.flow.advanced(drift, cfg.dt, noise, stages=stages)
            trial.invert()
            v_new = self._recover(trial, label_u)
            u_new = self._drift_from_momentum(v_new)
            self._max_speed(u_new)
            # Correction passes integrate the time-averaged drift along the
            # characteristic (two-stage update): plain re-advancing with an
            # averaged drift field would leave an O(dt) bias per unit time.
            drift, stages = 0.5 * (self.u_values + u_new), 2

        # commit
        self.flow = trial
        self.v_values = v_new
        self._u_prev, self.u_values = self.u_values, u_new
        self.labels_u = label_u
        if self.labels_omega is not None:
            self.omega_values = transported_vorticity_2d(trial, self.labels_omega)
        self.t += cfg.dt
        self.step_index += 1

        self._append_diagnostics(label_u)
        # the diagnostics were the last readers of the step's integrands and
        # their transforms: free them before the next step builds its own
        self.flow._integrands.clear()

        if self.step_index % cfg.reset_interval == 0:
            self.labels_u = self.v_values
            if self.labels_omega is not None:
                self.labels_omega = self.omega_values.copy()
            self.flow.reset()

        self.wall_times.append(_time.perf_counter() - t_start)

    # -- diagnostics ---------------------------------------------------------

    def _append_diagnostics(self, label_u: np.ndarray) -> None:
        cfg = self.config
        u = self.u_values
        vol = self.grid.cell_volume
        energy = 0.5 * float(np.sum(u**2)) * vol
        if self.grid.dim >= 2:
            omega = (
                self.omega_values
                if self.omega_values is not None
                else np.asarray(curl_values(u, self.ws))
            )
            enstrophy = float(np.sum(omega**2)) * vol
            max_vort = float(np.max(np.abs(omega)))
        else:
            enstrophy = 0.0
            max_vort = 0.0
        max_div = float(np.max(np.abs(divergence_values(u, self.ws))))
        max_det_dev = self.flow.max_det_deviation()

        defect = 0.0
        if self.curve is not None:
            defect = self._circulation_diagnostics(label_u)

        se = 0.0  # an exact mean has no spread to sample
        if cfg.realizations > 1 and not exact_mean(self.flow, label_u):
            spread = probe_spread(
                self.flow, label_u, self.probes, weber=cfg.equation != "burgers"
            )
            se = float(np.max(spread.std(axis=0, ddof=1))) / np.sqrt(cfg.realizations)
        # a step's SE covers every shift since its window's reset, so only
        # a window's last step adds to the closed windows' sum
        accum = float(np.sqrt(self._se_closed_sq + se * se))
        if self.step_index % cfg.reset_interval == 0:
            self._se_closed_sq += se * se

        self.diagnostics.append(
            step=self.step_index,
            time=self.t,
            energy=energy,
            enstrophy=enstrophy,
            max_vorticity=max_vort,
            max_divergence=max_div,
            max_det_dev=max_det_dev,
            circulation_defect=defect,
            probe_se=se,
            probe_se_accum=accum,
        )

    def _circulation_diagnostics(self, label_u: np.ndarray) -> float:
        cfg = self.config
        worst = 0.0
        sample = min(CIRCULATION_REALIZATIONS, cfg.realizations)
        xi = self.flow.xi_general()
        # forced windows carry one label field per realization
        labels = np.broadcast_to(label_u, xi.shape[:1] + label_u.shape[-self.grid.dim - 1 :])
        for m in range(sample):
            u_tilde = realization_field(self.flow, label_u, m, weber=True, project=True)
            res = circulation(self.grid, labels[m], u_tilde, xi[m], self.flow.shifts[m], self.curve)
            self.circulation_rows.append({"time": self.t, "realization": m, **res})
            worst = max(worst, res["defect"])
        return worst

    # -- full run ------------------------------------------------------------

    def run(self) -> RunResult:
        cfg = self.config
        out_dir = Path(cfg.output_dir) if cfg.output_dir else None
        snap_paths: list[Path] = []
        if out_dir is not None:
            out_dir.mkdir(parents=True, exist_ok=True)

        def snapshot(tag: str) -> None:
            if out_dir is None:
                return
            path = out_dir / f"snapshot_{tag}.slnsf"
            write_snapshot(path, self.velocity_field(), self.t)
            snap_paths.append(path)

        try:
            snapshot("000000")
            for i in range(cfg.num_steps):
                self.step()
                if cfg.snapshot_interval > 0 and self.step_index % cfg.snapshot_interval == 0:
                    snapshot(f"{self.step_index:06d}")
            if cfg.num_steps > 0 and (
                cfg.snapshot_interval == 0 or cfg.num_steps % cfg.snapshot_interval != 0
            ):
                snapshot(f"{self.step_index:06d}")
        finally:
            # partial results are still written out when a step aborts
            if out_dir is not None:
                write_csv(out_dir / "diag.csv", DIAG_COLUMNS, self.diagnostics.rows)
                write_csv(
                    out_dir / "timing.csv",
                    ("step", "wall_seconds"),
                    ({"step": i + 1, "wall_seconds": w} for i, w in enumerate(self.wall_times)),
                )
                if self.circulation_rows:
                    write_csv(out_dir / "circulation.csv", CIRCULATION_COLUMNS,
                              self.circulation_rows)

        artifacts: dict[str, str] = {}
        if out_dir is not None:
            for p in [out_dir / "diag.csv", *snap_paths]:
                artifacts[p.name] = _sha256(p)
            if self.circulation_rows:
                artifacts["circulation.csv"] = _sha256(out_dir / "circulation.csv")
            with open(out_dir / "manifest.json", "w") as fh:
                json.dump({"artifacts": artifacts}, fh, indent=2, sort_keys=True)

        return RunResult(
            config=cfg,
            velocity=self.velocity_field(),
            diagnostics=self.diagnostics,
            vorticity=self.vorticity_field(),
            momentum=self.momentum_field(),
            wall_times=self.wall_times,
            artifacts=artifacts,
        )


def run(config: SolverConfig) -> RunResult:
    """Build a solver from ``config`` and integrate to ``t_end``."""
    return StochasticSolver(config).run()


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    h.update(Path(path).read_bytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# oracles and convergence studies
# ---------------------------------------------------------------------------


def oracle_solution(config: SolverConfig, t, oracle: str = "analytic"):
    """Deterministic reference at time ``t`` by the named oracle of :data:`ORACLES`;
    for a sorted sequence of times, the list of references at those times.

    * ``cole_hopf``: the Cole-Hopf solution of 1D Burgers from ``sine_mode``
      data, for ``nu > 0``;
    * ``spectral_ns``: :func:`spectral_ns_run` of an incompressible run, with
      the config's forcing, through every time in one integration on ``2n``,
      each state restricted to ``n`` by :func:`spectral_resample`; the
      interval ``D`` before each time takes steps of ``D / ceil(D / min(dt, 1e-2))``;
    * ``analytic``: the closed form where one exists (``cole_hopf``, the
      Taylor-Green field unforced or under ``steady_taylor_green``
      forcing, or the unforced ABC field), else ``spectral_ns``.

    A :exc:`ConfigError` says why the named oracle does not apply.
    """
    if oracle not in ORACLES:
        raise ConfigError(f"oracle must be one of {ORACLES}, got {oracle!r}")
    grid = config.grid()
    times = np.atleast_1d(np.asarray(t, dtype=np.float64))
    sine_burgers = (config.equation, config.dim, config.initial) == ("burgers", 1, "sine_mode")
    if oracle == "cole_hopf" or (oracle == "analytic" and sine_burgers):
        if not sine_burgers:
            raise ConfigError("cole_hopf oracle needs a 1D burgers run with sine_mode initial data")
        if config.nu <= 0:
            raise ConfigError("cole_hopf oracle needs nu > 0")
        mode = config.initial_params.get("mode", 1)
        amp = config.initial_params.get("amplitude", 1.0)
        k = 2.0 * np.pi * mode / config.length
        x = grid.axis()
        psi0 = -(amp / k) * np.cos(k * x)
        try:
            fields = [Field(grid, cole_hopf_burgers(psi0, config.length, config.nu, s, x)[None])
                      for s in times]
        except ValueError as exc:
            raise ConfigError(f"cole_hopf oracle: {exc}") from None
    elif config.equation not in ("navier_stokes", "euler"):
        raise ConfigError(f"no {oracle} oracle for equation={config.equation}: "
                          "the spectral reference needs an incompressible run")
    elif (
        oracle == "analytic"
        and config.initial == "taylor_green_2d"
        and config.forcing in (None, "steady_taylor_green")
    ):
        # the forcing holds its own amplitude steady; the rest decays as a
        # Stokes eigenmode (the advection of the cellular field is a gradient)
        amp = config.initial_params.get("amplitude", 1.0)
        held = config.forcing_params.get("amplitude", 1.0) if config.forcing else 0.0
        rate = taylor_green_decay_rate(config.length, config.nu)
        fields = [taylor_green_2d(grid, held + (amp - held) * np.exp(-rate * s)) for s in times]
    elif oracle == "analytic" and config.initial == "abc_flow" and config.forcing is None:
        # a Beltrami field, curl u = (2 pi / L) u: its advection is a
        # gradient, so it too decays as a Stokes eigenmode
        u0 = config.initial_field()
        rate = config.nu * (2.0 * np.pi / config.length) ** 2
        fields = [Field(grid, u0.values * np.exp(-rate * s)) for s in times]
    else:
        fine = replace(config, n=2 * config.n)
        refs = spectral_ns_run(fine.initial_field(), config.nu, min(config.dt, 1e-2), times,
                               forcing=config.forcing_fn())
        fields = [spectral_resample(r, config.n) for r in refs]
    return fields if np.ndim(t) else fields[0]


def relative_l2_error(a: Field, b: Field) -> float:
    denom = max(b.l2_norm(), 1e-300)
    return (a - b).l2_norm() / denom


def convergence_study(
    config: SolverConfig,
    axis: str,
    levels: int,
    reference: str = "self",
) -> list[dict]:
    """Refinement study along ``dt``, ``n`` or ``realizations``.

    Level ``i`` halves ``dt``, doubles ``n`` or quadruples the ensemble
    ``i`` times. ``dt`` refinements keep the Brownian paths common across
    levels (so the Monte Carlo offset cancels). ``dt`` and ``n`` levels
    report the relative L2 error, on the reference's grid, against the
    finest level (``reference="self"``) or the config's deterministic
    oracle at the finest ``n`` (``reference="oracle"``), and the order
    ``p`` of ``error ~ h^p``. The realization axis reports the accumulated
    probe standard error and its slope against M, which should sit near
    -1/2; it needs label windows (``reset_interval >= 2``) and ``nu > 0``,
    since a run that resets its labels every step, or has no noise, has no
    Monte Carlo error. Needs at least 3 levels.
    """
    finest = 2 ** (levels - 1)
    refine = {
        "dt": lambda i: {"dt": config.dt / 2**i, "substeps": config.substeps * finest // 2**i},
        "n": lambda i: {"n": config.n * 2**i},
        "realizations": lambda i: {"realizations": config.realizations * 4**i},
    }
    if levels < 3:
        raise ConfigError("a convergence study needs at least 3 levels")
    if reference not in ("self", "oracle"):
        raise ConfigError(f"reference must be 'self' or 'oracle', got {reference!r}")
    if axis not in refine:
        raise ConfigError("axis must be 'dt', 'n' or 'realizations'")
    if axis == "realizations" and (config.reset_interval == 1 or config.nu == 0.0):
        raise ConfigError("the realizations axis needs Monte Carlo error: runs with "
                          "reset_interval = 1 or nu = 0 average the noise exactly")
    cfgs = [replace(config, output_dir=None, **refine[axis](i)) for i in range(levels)]
    factor = 4 if axis == "realizations" else 2
    # dt and n levels are measured against one field, the ensemble axis by
    # its own accumulated probe standard error
    ref = None
    if axis != "realizations":
        if reference == "oracle":
            ref = oracle_solution(replace(config, n=cfgs[-1].n), config.t_end)
        else:
            ref = run(cfgs.pop()).velocity

    rows: list[dict] = []
    for cfg in cfgs:
        res = run(cfg)
        if ref is None:
            error = float(res.diagnostics.column("probe_se_accum")[-1])
        else:
            error = relative_l2_error(spectral_resample(res.velocity, ref.grid.n), ref)
        order = float("nan")
        if rows:
            # error falls with dt and n but is reported as a slope in M
            prev = rows[-1]["error"]
            num, den = (error, prev) if ref is None else (prev, error)
            with np.errstate(divide="ignore", invalid="ignore"):
                order = float(np.log(np.divide(num, den)) / np.log(factor))
        rows.append({"axis": axis, "value": getattr(cfg, axis), "error": error, "order": order})
    return rows
