"""Refinement behavior along the three axes that matter.

* time step, with common Brownian paths across levels (the Monte Carlo
  offset cancels, exposing the order-two drift integration of a
  deterministic run and order-one weak behavior of a noisy one);
* grid resolution (spectral differentiation: fast decay until the Monte
  Carlo floor);
* ensemble size (probe standard error shrinking at the M^(-1/2) rate), on
  label windows: a step whose labels reset at its start averages the
  Brownian shifts exactly and has no Monte Carlo error to shrink.

Run:  python3 demos/convergence_studies.py
"""

from slns import SolverConfig, convergence_study


def show(title, rows):
    print(f"\n{title}")
    print(f"{'value':>12} {'error':>14} {'order':>8}")
    for r in rows:
        print(f"{r['value']:>12.6g} {r['error']:>14.4e} {r['order']:>8.3f}")


def main():
    euler = SolverConfig(
        equation="euler",
        dim=2,
        n=64,
        nu=0.0,
        dt=2e-2,
        t_end=0.4,
        realizations=1,
        seed=0,
        initial="random_band_limited",
        initial_params={"kmax": 2, "seed": 8, "divergence_free": True},
        inversion_tol_factor=1e-12,
    )
    show("inviscid, time step halving (self-convergence)", convergence_study(euler, "dt", 4))

    burgers = SolverConfig(
        equation="burgers",
        dim=1,
        n=128,
        nu=0.1,
        dt=8e-3,
        t_end=0.16,
        realizations=64,
        seed=0,
        initial="sine_mode",
        initial_params={"mode": 1, "amplitude": 1.0},
    )
    show(
        "viscous Burgers, time step halving with common Brownian paths",
        convergence_study(burgers, "dt", 4),
    )

    resolution = SolverConfig(
        equation="euler",
        dim=2,
        n=16,
        nu=0.0,
        dt=5e-3,
        t_end=0.05,
        realizations=1,
        seed=0,
        initial="random_band_limited",
        initial_params={"kmax": 3, "seed": 4, "divergence_free": True},
    )
    show("inviscid, grid doubling", convergence_study(resolution, "n", 4))

    ensemble = SolverConfig(
        equation="navier_stokes",
        dim=2,
        n=32,
        nu=0.05,
        dt=5e-3,
        t_end=0.02,
        realizations=16,
        reset_interval=4,
        seed=0,
    )
    show(
        "probe standard error of one 4-step label window, ensemble size x4 per level",
        convergence_study(ensemble, "realizations", 4),
    )


if __name__ == "__main__":
    main()
