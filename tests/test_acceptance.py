"""Acceptance suite: one test per shipping criterion.

Each test prints a PASS line with the measured numbers next to its gate so
`pytest -s tests/test_acceptance.py` doubles as the acceptance report.
Expensive ensemble runs are shared across criteria through module-scoped
fixtures. Statistical gates follow the budget style used throughout:
3x a measured Monte Carlo standard error plus, where stated, an absolute
floor.
"""

import time
import warnings
from dataclasses import replace

import numpy as np
import pytest

from conftest import alpha_general, fit_order, spde_residual
import slns.recovery
from slns.grid import Field, PeriodicGrid
from slns.recovery import circulation, stochastic_velocity
from slns.reference import (
    cole_hopf_burgers,
    random_band_limited,
    spectral_ns_run,
    taylor_green_2d,
    taylor_green_energy,
)
from slns.solver import (
    SolverConfig,
    StochasticSolver,
    oracle_solution,
    relative_l2_error,
    run,
)
from slns.spectral import (
    curl_values,
    gradient,
    laplacian_values,
    leray_project,
    workspace,
)

L = 2 * np.pi


def rms(values: np.ndarray) -> float:
    return float(np.sqrt(np.mean(values**2)))


def report(num: int, detail: str) -> None:
    print(f"\nACCEPTANCE {num}: PASS - {detail}")


# ---------------------------------------------------------------------------
# shared runs
# ---------------------------------------------------------------------------

BURGERS_SEEDS = (0, 1, 2, 3, 4, 5)
NS_SEEDS = (0, 1, 2, 3, 4)


def burgers_config(m: int, seed: int) -> SolverConfig:
    return SolverConfig(
        equation="burgers",
        dim=1,
        n=256,
        length=L,
        nu=0.1,
        dt=1e-3,
        t_end=0.5,
        realizations=m,
        reset_interval=1,
        seed=seed,
        initial="sine_mode",
        initial_params={"mode": 1, "amplitude": 1.0},
    )


def ns_config(**kw) -> SolverConfig:
    base = dict(
        equation="navier_stokes",
        dim=2,
        n=64,
        length=L,
        nu=0.05,
        dt=5e-3,
        t_end=0.5,
        realizations=1024,
        seed=0,
    )
    base.update(kw)
    return SolverConfig(**base)


@pytest.fixture(scope="module")
def burgers_runs():
    """Errors vs Cole-Hopf for M in {256, 1024, 4096} over replicate seeds."""
    x = np.arange(256) * L / 256
    psi0 = -np.cos(x)
    errors: dict[int, list[float]] = {256: [], 1024: [], 4096: []}
    se_main = wall_main = None
    for seed in BURGERS_SEEDS:
        for m in (256, 1024, 4096):
            t0 = time.perf_counter()
            res = run(burgers_config(m, seed))
            wall = time.perf_counter() - t0
            ref = cole_hopf_burgers(psi0, L, 0.1, 0.5, x)
            errors[m].append(rms(res.velocity.values[0] - ref))
            if seed == 0 and m == 4096:
                se_main = float(res.diagnostics.column("probe_se_accum")[-1])
                wall_main = wall
    return errors, se_main, wall_main


@pytest.fixture(scope="module")
def ns_runs():
    """The reference Navier-Stokes run plus replicate seeds."""
    results = {seed: run(ns_config(seed=seed)) for seed in NS_SEEDS}
    return results


@pytest.fixture(scope="module")
def ns_reference_field():
    cfg = ns_config()
    u0 = taylor_green_2d(cfg.grid())
    return spectral_ns_run(u0, cfg.nu, 1e-3, cfg.t_end)


@pytest.fixture(scope="module")
def forced_runs():
    cfg = ns_config(forcing="steady_taylor_green")
    return {seed: run(replace(cfg, seed=seed)) for seed in NS_SEEDS}


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def test_criterion_1_burgers_representation(burgers_runs):
    errors, se_main, wall_main = burgers_runs
    err_main = errors[4096][0]
    gate = 3.0 * se_main + 5e-3
    assert err_main <= gate, f"burgers rms error {err_main:.3e} > {gate:.3e}"

    ms = np.array([256, 1024, 4096], dtype=float)
    rms_err = np.array([rms(np.array(errors[int(m)])) for m in ms])
    slope = float(np.polyfit(np.log(ms), np.log(rms_err), 1)[0])
    assert abs(slope + 0.5) <= 0.15, f"MC slope {slope:.3f} outside -0.5 +/- 0.15"

    assert wall_main <= 120.0, f"M=4096 run took {wall_main:.0f}s > 2 min"
    report(
        1,
        f"rms error {err_main:.3e} <= {gate:.3e}; MC slope {slope:.3f}; "
        f"wall {wall_main:.1f}s",
    )


def test_criterion_2_euler_degeneration():
    cfg = ns_config(equation="euler", nu=0.0, dt=1e-2, t_end=1.0, realizations=1)
    u0 = taylor_green_2d(cfg.grid())
    err = (run(cfg).velocity - u0).max_norm()
    assert err <= 1e-3, f"steady Taylor-Green drifted by {err:.3e}"
    report(2, f"max drift {err:.3e} <= 1e-3 after 100 steps")


def test_criterion_3_navier_stokes_taylor_green(ns_runs, ns_reference_field):
    cfg = ns_config()
    e0 = taylor_green_energy(L)
    e_exact = e0 * np.exp(-4.0 * cfg.nu * cfg.t_end)

    energies = {s: float(r.diagnostics.column("energy")[-1]) for s, r in ns_runs.items()}
    se_energy = float(np.std(list(energies.values()), ddof=1))
    gate_e = max(3.0 * se_energy, 2e-3 * e0)
    err_e = abs(energies[0] - e_exact)
    assert err_e <= gate_e, f"energy error {err_e:.3e} > {gate_e:.3e}"

    ref = ns_reference_field
    rel_errors = {
        s: (r.velocity - ref).l2_norm() / ref.l2_norm() for s, r in ns_runs.items()
    }
    se_field = rms(np.array(list(rel_errors.values())))
    gate_f = max(3.0 * se_field, 2e-3)
    assert rel_errors[0] <= gate_f, f"field error {rel_errors[0]:.3e} > {gate_f:.3e}"
    report(
        3,
        f"energy error {err_e:.3e} <= {gate_e:.3e}; "
        f"field rel L2 {rel_errors[0]:.3e} <= {gate_f:.3e}",
    )


def test_criterion_4_jacobian_identity(ns_runs):
    dev = float(ns_runs[0].diagnostics.column("max_det_dev").max())
    assert dev <= 1e-3, f"max |det grad X - 1| = {dev:.3e} > 1e-3"
    report(4, f"max |det grad X - 1| = {dev:.3e} <= 1e-3 at every step")


def test_criterion_5_circulation_conservation():
    def curve(s):
        ang = 2 * np.pi * np.asarray(s)
        return np.stack([np.pi + np.cos(ang), np.pi + np.sin(ang)])

    levels = [(64, 5e-3), (128, 2.5e-3), (256, 1.25e-3)]
    worst_defects = []
    gamma0 = None
    for n, dt in levels:
        cfg = ns_config(n=n, dt=dt, t_end=5 * dt, realizations=4, reset_interval=1000)
        s = StochasticSolver(cfg)
        for _ in range(5):
            s.step()
        xi = s.flow.xi_general()
        defects = []
        for m in range(cfg.realizations):
            u_tilde = stochastic_velocity(s.flow, s.labels_u, m)
            res = circulation(s.grid, s.labels_u, u_tilde, xi[m], s.flow.shifts[m], curve)
            defects.append(res["defect"])
            if gamma0 is None:
                gamma0 = abs(res["gamma_initial"])
        worst_defects.append(max(defects))
        if n == 64:
            for m, d in enumerate(defects):
                assert d <= 1e-3 * gamma0, f"realization {m}: defect {d:.2e}"
    order = fit_order([n for n, _ in levels], worst_defects)
    assert order >= 1.0, f"defect refinement order {order:.2f} < 1"
    report(
        5,
        f"defects <= {max(worst_defects):.2e} (gate {1e-3 * gamma0:.2e}) per "
        f"realization; refinement order {order:.2f}",
    )


def test_criterion_6_vorticity_2d(ns_runs):
    res = ns_runs[0]
    cfg = ns_config()
    omega0_max = 2.0  # curl of the unit cellular field
    osc = 4.0
    max_vort = float(res.diagnostics.column("max_vorticity").max())
    assert max_vort <= omega0_max + 1e-3 * osc

    ws = workspace(cfg.grid())
    om_curl = curl_values(res.velocity.values, ws)
    diff = res.vorticity.values[0] - om_curl
    rel = np.sqrt(np.sum(diff**2) / np.sum(om_curl**2))
    assert rel <= 5e-2, f"vorticity vs curl(u) rel L2 {rel:.3e} > 5e-2"
    report(
        6,
        f"max |w| {max_vort:.6f} <= {omega0_max + 1e-3 * osc}; "
        f"w vs curl(u) rel L2 {rel:.3e} <= 5e-2",
    )


def test_criterion_7_operator_suite():
    grid = PeriodicGrid(2, 64, L)
    v = random_band_limited(grid, kmax=10, seed=3, components=2)
    q = random_band_limited(grid, kmax=10, seed=4)
    gq = Field(grid, gradient(q).values)

    w = leray_project(v)
    idem = (leray_project(w) - w).max_norm() / max(v.max_norm(), 1.0)
    assert idem <= 1e-12
    annih = leray_project(gq).max_norm() / gq.max_norm()
    assert annih <= 1e-12
    from slns.grid import l2_inner

    ortho = abs(l2_inner(w, gq)) / (w.l2_norm() * gq.l2_norm())
    assert ortho <= 1e-10

    # derivative order vs 4th-order finite differences
    ns = [32, 64, 128]
    errs = []
    for n in ns:
        g1 = PeriodicGrid(1, n, L)
        f = random_band_limited(g1, kmax=4, seed=7)
        grad = gradient(f).values[0]
        vals = f.values[0]
        h = g1.spacing
        fd = (-np.roll(vals, -2) + 8 * np.roll(vals, -1) - 8 * np.roll(vals, 1) + np.roll(vals, 2)) / (12 * h)
        errs.append(np.max(np.abs(grad - fd)))
    d_order = fit_order(ns, errs)
    assert d_order >= 3.5

    # interpolation order on a smooth field
    from slns.interp import FieldInterpolator

    pts = np.linspace(0, L, 500, endpoint=False)[None, :]
    ierrs = []
    for n in ns:
        g1 = PeriodicGrid(1, n, L)
        f = Field.from_callable(g1, lambda c: np.sin(2 * c[0]) + 0.3 * np.cos(3 * c[0]))
        exact = np.sin(2 * pts[0]) + 0.3 * np.cos(3 * pts[0])
        ierrs.append(np.max(np.abs(FieldInterpolator(g1, f.values).at(pts)[0] - exact)))
    i_order = fit_order(ns, ierrs)
    assert i_order >= 3.5

    report(
        7,
        f"idempotence {idem:.1e}<=1e-12; annihilation {annih:.1e}<=1e-12; "
        f"orthogonality {ortho:.1e}<=1e-10; derivative order {d_order:.2f}; "
        f"interpolation order {i_order:.2f}",
    )


def test_criterion_8_lans_alpha(tmp_path, ns_runs):
    # alpha = 0 must be bit-identical to the plain run
    out_ns = tmp_path / "ns"
    out_l0 = tmp_path / "lans0"
    cfg = ns_config(t_end=0.1, realizations=256)
    run(replace(cfg, output_dir=str(out_ns)))
    run(replace(cfg, equation="lans_alpha", alpha=0.0, output_dir=str(out_l0)))
    assert (out_ns / "diag.csv").read_bytes() == (out_l0 / "diag.csv").read_bytes()

    cfg5 = ns_config(equation="lans_alpha", alpha=0.5, realizations=256)
    res = run(cfg5)
    umax = np.abs(res.velocity.values).max()
    max_div = float(res.diagnostics.column("max_divergence").max())
    assert max_div <= 1e-10 * max(umax, 1.0)
    e = res.diagnostics.column("energy")
    e0 = e[0]
    assert np.all(e <= 1.05 * e0) and np.all(np.isfinite(e))

    ws = workspace(cfg5.grid())
    u = res.velocity.values
    forward = u - cfg5.alpha**2 * laplacian_values(u, ws)
    resid = np.max(np.abs(forward - res.momentum.values))
    assert resid <= 1e-10
    report(
        8,
        f"alpha=0 bit-identical; alpha=0.5: max div {max_div:.2e}, "
        f"energy bounded, filter residual {resid:.2e} <= 1e-10",
    )


def test_criterion_9_backend_equivalence():
    diffs = []
    dts = [5e-3, 2.5e-3, 1.25e-3]
    for lvl, dt in enumerate(dts):
        sub = 2 ** (len(dts) - 1 - lvl)
        fields = {}
        for backend in ("direct_sde", "translated_flow"):
            cfg = ns_config(
                dt=dt, t_end=dt, realizations=256, backend=backend, substeps=sub
            )
            fields[backend] = run(cfg).velocity.values
        diffs.append(np.max(np.abs(fields["direct_sde"] - fields["translated_flow"])))
    order = fit_order(1.0 / np.asarray(dts), diffs)
    assert order >= 1.0, f"backend agreement order {order:.2f} < 1"
    report(9, f"single-step backend difference order {order:.2f} >= 1 (diffs {diffs})")


def test_criterion_10_spde_residual():
    t_window = 0.016
    means = []
    dts = [8e-3, 4e-3, 2e-3]
    for lvl, dt in enumerate(dts):
        sub = 2 ** (len(dts) - 1 - lvl)
        cfg = ns_config(
            dt=dt,
            t_end=1.0,  # not used: stepped manually
            realizations=32,
            reset_interval=10**6,
            substeps=sub,
        )
        s = StochasticSolver(cfg)
        for _ in range(int(round(t_window / dt))):
            s.step()
        a_prev = alpha_general(s.flow)
        u_start = s.u_values.copy()
        noise = np.sqrt(2 * cfg.nu) * s.ensemble.increments(s.step_index, dt)
        s.step()
        a_next = alpha_general(s.flow)
        res = spde_residual(s.grid, a_prev, a_next, u_start, noise, cfg.nu, dt)
        means.append(float(res.mean()))
    order = fit_order(1.0 / np.asarray(dts), means)
    assert order >= 0.5, f"SPDE residual order {order:.2f} < 0.5"
    report(10, f"mean SPDE residual order {order:.2f} >= 0.5 (residuals {means})")


def test_criterion_11_manufactured_forcing(forced_runs):
    cfg = ns_config(forcing="steady_taylor_green")
    u0 = taylor_green_2d(cfg.grid())
    e0 = taylor_green_energy(L)

    energies = {s: float(r.diagnostics.column("energy")[-1]) for s, r in forced_runs.items()}
    se_energy = float(np.std(list(energies.values()), ddof=1))
    gate_e = max(3.0 * se_energy, 2e-3 * e0)
    err_e = abs(energies[0] - e0)
    assert err_e <= gate_e, f"forced energy error {err_e:.3e} > {gate_e:.3e}"

    rel_errors = {
        s: (r.velocity - u0).l2_norm() / u0.l2_norm() for s, r in forced_runs.items()
    }
    se_field = rms(np.array(list(rel_errors.values())))
    gate_f = max(3.0 * se_field, 2e-3)
    assert rel_errors[0] <= gate_f, f"forced field error {rel_errors[0]:.3e} > {gate_f:.3e}"
    report(
        11,
        f"steady forced state held: energy error {err_e:.3e} <= {gate_e:.3e}, "
        f"field rel L2 {rel_errors[0]:.3e} <= {gate_f:.3e}",
    )


# noise-free runs whose nonlinear term is not a gradient, against
# spectral_ns (integrated at twice the resolution): (config, gate on the
# relative L2 error). The field moves by 9.98e-2 (3D) and 2.15e-1 (2D).
NONLINEAR_CASES = {
    "taylor-green-3d": (
        dict(dim=3, n=16, dt=0.02, initial="taylor_green_3d"),
        1e-4,
    ),
    "random-2d": (
        dict(dim=2, n=32, dt=0.01, initial="random_band_limited",
             initial_params={"kmax": 3, "seed": 1, "divergence_free": True}),
        5e-4,
    ),
}


def nonlinear_error(case: str) -> tuple[float, float]:
    """The relative L2 error of a noise-free run of ``case`` to t = 0.4
    against the spectral reference (integrated at 2n), and its gate. The
    reference must not warn about energy at its cutoff."""
    kw, gate = NONLINEAR_CASES[case]
    cfg = SolverConfig(equation="euler", nu=0.0, t_end=0.4, realizations=1, **kw)
    res = run(cfg)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ref = oracle_solution(cfg, cfg.t_end, "spectral_ns")
    return relative_l2_error(res.velocity, ref), gate


@pytest.mark.parametrize("case", sorted(NONLINEAR_CASES))
def test_criterion_12_nonlinear_euler_against_spectral(case):
    err, gate = nonlinear_error(case)
    assert err <= gate, f"{case}: rel L2 {err:.3e} > {gate:.0e}"
    report(12, f"{case}: rel L2 {err:.3e} <= {gate:.0e} against spectral_ns at 2n")


@pytest.mark.parametrize("case", sorted(NONLINEAR_CASES))
def test_criterion_12_fails_with_a_transposed_weber_weight(monkeypatch, case):
    # grad beta in place of grad^T beta in the Weber integrand: the error
    # grows to about the size of the motion itself
    real = slns.recovery.gradient_values

    def transposed(values, ws):
        g = real(values, ws)
        d = ws.grid.dim
        return np.swapaxes(g, -d - 2, -d - 1)

    monkeypatch.setattr(slns.recovery, "gradient_values", transposed)
    err, gate = nonlinear_error(case)
    assert err > 10 * gate, f"{case}: the planted defect reads {err:.3e}"
