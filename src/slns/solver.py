"""Time-stepping driver for the stochastic Lagrangian representation.

One step of the scheme, for the current label data ``u0`` (velocity at the
start of the label window):

1. freeze the current velocity as the drift;
2. advance every realization's forward map by one step of
   ``dX = u dt + sqrt(2 nu) dW`` (noise uniform in space);
3. invert to the back-to-labels maps;
4. recover the new velocity with the equation's formula (transported
   average for Burgers, projected Weber average for incompressible flow,
   Helmholtz-filtered Weber pair for the alpha model);
5. optionally repeat the advance with the damped drift
   ``(u_old + u_new) / 2`` (Picard iteration, Heun-like for 2 passes);
6. every ``reset_interval`` steps, replace the label data with the current
   velocity and restart the maps at the identity (the semigroup property
   keeps the composition meaningful while the inversion stays
   well-conditioned).

The drift feeds the SDE whose ensemble average defines the drift: the
fixed point is resolved per step, which is the standard discrete surrogate
for the implicit (McKean) formulation.

Viscosity only ever enters through the noise amplitude; no diffusion
operator is applied to any field.
"""

from __future__ import annotations

import hashlib
import json
import time as _time
from dataclasses import dataclass, field as dataclass_field, replace
from pathlib import Path

import numpy as np

from .errors import CFLViolation, ConfigError, NonFiniteVelocity
from .flowmap import FlowEnsemble
from .grid import Field, PeriodicGrid
from .recovery import (
    ForcingAccumulator,
    burgers_velocity,
    circulation,
    probe_spread,
    realization_field,
    transported_vorticity_2d,
    weber_velocity,
)
from .reference import (
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


@dataclass
class SolverConfig:
    """Full description of one run; every field has a validated default.

    ``interpolation`` selects the composition scheme ("cubic" splines by
    default, "linear" as the fast fallback). ``picard_tol = 0`` runs a
    fixed number of Picard passes, which keeps runs bit-reproducible.
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
    picard_tol: float = 0.0
    seed: int = 0
    backend: str = "direct_sde"
    interpolation: str = "cubic"
    cfl_max: float = 0.5
    inversion_tol_factor: float = 1e-8
    newton_max_iter: int = 25
    workers: int = 1
    substeps: int = 1
    initial: str = "taylor_green_2d"
    initial_params: dict = dataclass_field(default_factory=dict)
    forcing: str | None = None
    forcing_params: dict = dataclass_field(default_factory=dict)
    forcing_quadrature: str = "left"
    track_vorticity: bool | None = None
    snapshot_interval: int = 0
    probes: list | None = None
    circulation_curve: dict | None = None
    circulation_realizations: int = 2
    output_dir: str | None = None

    def __post_init__(self) -> None:
        if self.equation not in EQUATIONS:
            raise ConfigError(f"equation must be one of {EQUATIONS}, got {self.equation!r}")
        if self.backend not in BACKENDS:
            raise ConfigError(f"backend must be one of {BACKENDS}, got {self.backend!r}")
        if self.equation == "euler" and self.nu != 0.0:
            raise ConfigError("equation=euler requires nu=0 (noise-free run)")
        if self.nu < 0:
            raise ConfigError("nu must be >= 0")
        if self.alpha < 0:
            raise ConfigError("alpha must be >= 0")
        if self.dt <= 0 or self.t_end < 0:
            raise ConfigError("dt must be positive and t_end nonnegative")
        if self.realizations < 1:
            raise ConfigError("need at least one realization")
        if self.reset_interval < 1:
            raise ConfigError("reset_interval must be >= 1")
        if self.picard_iters < 1:
            raise ConfigError("picard_iters must be >= 1")
        if self.interpolation not in ("cubic", "linear", "quintic"):
            raise ConfigError("interpolation must be 'cubic', 'linear' or 'quintic'")
        if self.forcing_quadrature not in ("left", "trapezoid"):
            raise ConfigError("forcing_quadrature must be 'left' or 'trapezoid'")
        steps = self.t_end / self.dt
        if abs(steps - round(steps)) > 1e-9 * max(1.0, steps):
            raise ConfigError("t_end must be an integer multiple of dt")
        try:
            PeriodicGrid(self.dim, self.n, self.length)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

    @property
    def num_steps(self) -> int:
        return int(round(self.t_end / self.dt))

    @property
    def interp_order(self) -> int:
        return {"linear": 1, "cubic": 3, "quintic": 5}[self.interpolation]

    def grid(self) -> PeriodicGrid:
        return PeriodicGrid(self.dim, self.n, self.length)

    def initial_field(self) -> Field:
        grid = self.grid()
        try:
            return analytic_field(self.initial, grid, **self.initial_params)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"initial field {self.initial!r}: {exc}") from None

    def forcing_fn(self):
        if self.forcing is None:
            return None
        return make_forcing(self.forcing, self)

    def default_probes(self) -> np.ndarray:
        """Three fixed interior probe points (d, P)."""
        if self.probes is not None:
            pts = np.asarray(self.probes, dtype=np.float64)
            return pts.reshape(self.dim, -1)
        fracs = np.array([0.251, 0.503, 0.757])
        return np.tile(fracs * self.length, (self.dim, 1))


# ---------------------------------------------------------------------------
# forcing registry
# ---------------------------------------------------------------------------


def make_forcing(name: str, config: SolverConfig):
    """Named forcings evaluated at arbitrary points: ``f(points, t)``."""
    params = dict(config.forcing_params)
    L = config.length
    if name == "steady_taylor_green":
        # Balances viscous decay of the 2D cellular field so it is a
        # steady solution: f = -nu * Lap(u0) = 2 nu (2pi/L)^2 u0.
        amp = params.get("amplitude", 1.0)
        k = 2.0 * np.pi / L
        coef = 2.0 * config.nu * k**2 * amp

        def f(points, t):
            x, y = points[0], points[1]
            return coef * np.stack([np.cos(k * x) * np.sin(k * y), -np.sin(k * x) * np.cos(k * y)])

        return f
    if name == "constant":
        vec = params.get("vector", [0.0] * config.dim)
        if np.shape(vec) != (config.dim,):
            raise ConfigError(f"constant forcing vector must have {config.dim} numbers")
        vec = np.asarray(vec, dtype=np.float64)

        def f(points, t):
            shape = points.shape[1:]
            return np.broadcast_to(vec.reshape((config.dim,) + (1,) * len(shape)), (config.dim,) + shape)

        return f
    raise ConfigError(f"unknown forcing {name!r}")


def named_curve(spec: dict, length: float):
    """Closed-curve factory for circulation probes."""
    kind = spec.get("kind", "circle")
    if kind == "circle":
        center = np.asarray(spec.get("center", [length / 2.0, length / 2.0]))
        radius = float(spec.get("radius", 1.0))

        def curve(s):
            ang = 2.0 * np.pi * np.asarray(s)
            return np.stack([center[0] + radius * np.cos(ang), center[1] + radius * np.sin(ang)])

        return curve
    raise ConfigError(f"unknown curve kind {spec.get('kind')!r}")


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

    def to_csv(self, path: str | Path) -> None:
        with open(path, "w") as fh:
            fh.write(",".join(DIAG_COLUMNS) + "\n")
            for r in self.rows:
                fh.write(",".join(_fmt(r[c]) for c in DIAG_COLUMNS) + "\n")

    def __len__(self) -> int:
        return len(self.rows)


def _fmt(v) -> str:
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return f"{float(v):.17g}"


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
        self.order = config.interp_order
        u0 = config.initial_field()
        if u0.components != config.dim:
            raise ConfigError("initial field must be a velocity (dim components)")

        self.ensemble = WienerEnsemble(config.realizations, config.dim, config.seed, config.substeps)
        self.flow = FlowEnsemble(
            self.grid,
            config.realizations,
            order=self.order,
            tol=config.inversion_tol_factor * config.length,
            max_newton=config.newton_max_iter,
            workers=config.workers,
        )

        incompressible = config.equation in ("navier_stokes", "euler", "lans_alpha")
        if incompressible:
            div0 = np.max(np.abs(divergence_values(u0.values, self.ws)))
            if div0 > 1e-8 * max(u0.max_norm(), 1e-300):
                raise ConfigError("initial velocity must be divergence-free")

        # Label data: the transported quantity on the current window.
        # For the alpha model the labels carry the momentum v and the drift
        # is the filtered velocity u = (1 - alpha^2 Lap)^{-1} v; everywhere
        # else momentum and velocity coincide.
        self.labels_u = u0.values.copy()
        self.v_values = self.labels_u
        self.u_values = self._drift_from_momentum(self.v_values)
        self.pin_mean = config.equation != "burgers" or config.dim == 1
        self.mean_target = self.labels_u.mean(axis=tuple(range(1, self.labels_u.ndim)))

        track = config.track_vorticity
        if track is None:
            track = config.dim == 2 and incompressible
        self.track_vorticity = track
        self.labels_omega = (
            curl_values(self.labels_u, self.ws)[np.newaxis] if track else None
        )
        self.omega_values = self.labels_omega.copy() if track else None

        self.forcing = config.forcing_fn()
        self.acc = (
            ForcingAccumulator.start(self.grid, self.labels_u) if self.forcing else None
        )

        self.curve = (
            named_curve(config.circulation_curve, config.length)
            if config.circulation_curve
            else None
        )
        self.probes = config.default_probes()
        self.diagnostics = Diagnostics()
        self.circulation_rows: list[dict] = []
        self.wall_times: list[float] = []
        self.t = 0.0
        self.step_index = 0
        self._se_accum_sq = 0.0
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
        return Field(self.grid, self.u_values.copy(), validate=False)

    def momentum_field(self) -> Field:
        return Field(self.grid, self.v_values.copy(), validate=False)

    def vorticity_field(self) -> Field | None:
        if self.omega_values is None:
            return None
        return Field(self.grid, self.omega_values.copy(), validate=False)

    # -- one step ----------------------------------------------------------

    def step(self) -> None:
        cfg = self.config
        t_start = _time.perf_counter()
        umax = self._max_speed(self.u_values)
        cfl = cfg.dt * umax / self.grid.spacing
        if cfl > cfg.cfl_max:
            raise CFLViolation(
                f"step {self.step_index}: CFL {cfl:.3f} exceeds {cfg.cfl_max} "
                f"(|u|max={umax:.3e}); reduce dt"
            )

        noise = None
        if cfg.nu > 0.0:
            dw = self.ensemble.increments(self.step_index, cfg.dt)
            noise = np.sqrt(2.0 * cfg.nu) * dw

        phi_candidate = None
        if self.forcing is not None and cfg.forcing_quadrature == "left":
            phi_candidate = self.acc.advanced(self.flow, self.forcing, self.t, cfg.dt)

        drift = self.u_values
        u_prev_pass: np.ndarray | None = None
        trial = self.flow
        label_u = self.labels_u
        chi = None
        for it in range(cfg.picard_iters):
            # Correction passes integrate the time-averaged drift along the
            # characteristic (two-stage update): plain re-advancing with an
            # averaged drift field would leave an O(dt) bias per unit time.
            stages = self._stages if it == 0 else 2
            trial = self.flow.advanced(drift, cfg.dt, noise, stages=stages)
            # every pass adds the same noise to the same shifts, so the
            # characteristic function built by the first pass serves all
            trial.chi = chi
            trial.invert()
            if self.forcing is not None and cfg.forcing_quadrature == "trapezoid":
                phi_candidate = self.acc.advanced(
                    self.flow, self.forcing, self.t, cfg.dt, "trapezoid", flow_end=trial
                )
            label_u = phi_candidate.values if phi_candidate is not None else self.labels_u
            v_new = self._recover(trial, label_u)
            chi = trial.chi
            u_new = self._drift_from_momentum(v_new)
            self._max_speed(u_new)
            if (
                u_prev_pass is not None
                and cfg.picard_tol > 0.0
                and float(np.max(np.abs(u_new - u_prev_pass))) <= cfg.picard_tol
            ):
                break
            drift = 0.5 * (self.u_values + u_new)
            u_prev_pass = u_new

        # commit
        self.flow = trial
        self.v_values = v_new
        self.u_values = u_new
        if self.forcing is not None:
            self.mean_target = self.mean_target + cfg.dt * np.asarray(
                self.forcing(self.grid.coordinates(), self.t)
            ).mean(axis=tuple(range(1, 1 + self.grid.dim)))
            self.acc = phi_candidate
        if self.track_vorticity:
            self.omega_values = transported_vorticity_2d(trial, self.labels_omega)
        self.t += cfg.dt
        self.step_index += 1

        self._append_diagnostics(label_u)

        if self.step_index % cfg.reset_interval == 0:
            self.labels_u = self.v_values.copy()
            if self.track_vorticity:
                self.labels_omega = self.omega_values.copy()
            if self.acc is not None:
                self.acc = ForcingAccumulator.start(self.grid, self.labels_u)
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
        if self.curve is not None and self.grid.dim == 2:
            defect = self._circulation_diagnostics(label_u)

        if cfg.realizations > 1:
            spread = probe_spread(
                self.flow, label_u, self.probes, weber=cfg.equation != "burgers"
            )
            se = float(np.max(spread.std(axis=0, ddof=1))) / np.sqrt(cfg.realizations)
        else:
            se = 0.0
        self._se_accum_sq += se * se

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
            probe_se_accum=float(np.sqrt(self._se_accum_sq)),
        )

    def _circulation_diagnostics(self, label_u: np.ndarray) -> float:
        cfg = self.config
        worst = 0.0
        sample = min(cfg.circulation_realizations, cfg.realizations)
        xi = self.flow.xi_general()
        # forced windows carry one label field per realization
        labels = np.broadcast_to(label_u, xi.shape[:1] + label_u.shape[-self.grid.dim - 1 :])
        for m in range(sample):
            u_tilde = realization_field(self.flow, label_u, m, weber=True, project=True)
            res = circulation(
                self.grid,
                labels[m],
                u_tilde,
                xi[m],
                self.flow.shifts[m],
                self.curve,
                quadrature_n=256,
                order=self.order,
            )
            self.circulation_rows.append(
                {
                    "time": self.t,
                    "realization": m,
                    "gamma_initial": res["gamma_initial"],
                    "gamma_transported": res["gamma_transported"],
                    "defect": res["defect"],
                }
            )
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
                self.diagnostics.to_csv(out_dir / "diag.csv")
                self._write_timing(out_dir / "timing.csv")
                if self.circulation_rows:
                    self._write_circulation(out_dir / "circulation.csv")

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

    def _write_timing(self, path: Path) -> None:
        with open(path, "w") as fh:
            fh.write("step,wall_seconds\n")
            for i, w in enumerate(self.wall_times):
                fh.write(f"{i + 1},{w:.6f}\n")

    def _write_circulation(self, path: Path) -> None:
        cols = ("time", "realization", "gamma_initial", "gamma_transported", "defect")
        with open(path, "w") as fh:
            fh.write(",".join(cols) + "\n")
            for r in self.circulation_rows:
                fh.write(",".join(_fmt(r[c]) for c in cols) + "\n")


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


def oracle_solution(config: SolverConfig, t: float, spectral: bool = False) -> Field | None:
    """Deterministic reference at time ``t`` for configs that have one, else None.

    The closed form where one exists: Cole-Hopf for 1D sine-mode Burgers
    (``nu > 0``), the Taylor-Green field unforced or under
    ``steady_taylor_green`` forcing. Otherwise, and for any incompressible
    run when ``spectral`` is set, :func:`spectral_ns_run` with the config's
    forcing and the step ``t / ceil(t / min(dt, 1e-2))``.
    """
    grid = config.grid()
    incompressible = config.equation in ("navier_stokes", "euler")
    if config.equation == "burgers" and config.dim == 1 and config.initial == "sine_mode":
        if spectral or config.nu <= 0:
            return None
        mode = config.initial_params.get("mode", 1)
        amp = config.initial_params.get("amplitude", 1.0)
        k = 2.0 * np.pi * mode / config.length
        x = grid.axis()
        psi0 = -(amp / k) * np.cos(k * x)
        vals = cole_hopf_burgers(psi0, config.length, config.nu, t, x)
        return Field(grid, vals[np.newaxis])
    if (
        incompressible
        and config.initial == "taylor_green_2d"
        and config.forcing in (None, "steady_taylor_green")
        and not spectral
    ):
        # the forcing holds its own amplitude steady; the rest decays as a
        # Stokes eigenmode (the advection of the cellular field is a gradient)
        amp = config.initial_params.get("amplitude", 1.0)
        held = config.forcing_params.get("amplitude", 1.0) if config.forcing else 0.0
        decay = np.exp(-taylor_green_decay_rate(config.length, config.nu) * t)
        return taylor_green_2d(grid, held + (amp - held) * decay)
    if not incompressible:
        return None
    u0 = config.initial_field()
    if t == 0:
        return u0
    ref_dt = min(config.dt, 1e-2)
    steps = max(1, int(np.ceil(t / ref_dt - 1e-12)))
    return spectral_ns_run(u0, config.nu, t / steps, t, forcing=config.forcing_fn())[-1][1]


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
    -1/2. Needs at least 3 levels.
    """
    finest = 2 ** (levels - 1)
    refine = {
        "dt": lambda i: {"dt": config.dt / 2**i, "substeps": config.substeps * finest // 2**i},
        "n": lambda i: {"n": config.n * 2**i},
        "realizations": lambda i: {"realizations": config.realizations * 4**i},
    }
    if levels < 3:
        raise ConfigError("a convergence study needs at least 3 levels")
    if axis not in refine:
        raise ConfigError("axis must be 'dt', 'n' or 'realizations'")
    cfgs = [replace(config, output_dir=None, **refine[axis](i)) for i in range(levels)]
    factor = 4 if axis == "realizations" else 2
    # dt and n levels are measured against one field, the ensemble axis by
    # its own accumulated probe standard error
    ref = None
    if axis != "realizations":
        if reference == "oracle":
            ref = oracle_solution(replace(config, n=cfgs[-1].n), config.t_end)
            if ref is None:
                raise ConfigError("no oracle available for this configuration")
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
