"""Pathwise circulation conservation.

For every single noise realization, the per-realization divergence-free
velocity transports circulation exactly: the loop integral of the
stochastic velocity around the advected curve equals the loop integral of
the initial velocity around the original curve. This is a pathwise
statement (no averaging), so it is checked realization by realization on
a label window that is never reset.

Run:  python3 demos/circulation_conservation.py
"""

import numpy as np

from slns import SolverConfig, StochasticSolver, circulation, stochastic_velocity


def circle(s):
    ang = 2 * np.pi * np.asarray(s)
    return np.stack([np.pi + np.cos(ang), np.pi + np.sin(ang)])


def main():
    cfg = SolverConfig(
        equation="navier_stokes",
        dim=2,
        n=128,
        nu=0.05,
        dt=2.5e-3,
        t_end=1.0,  # stepped manually below
        realizations=6,
        reset_interval=10**6,
        seed=0,
    )
    solver = StochasticSolver(cfg)
    steps = 8
    for _ in range(steps):
        solver.step()

    print(f"window of {steps} steps, {cfg.realizations} realizations, unit circle")
    print(f"{'m':>3} {'loop integral (t=0)':>20} {'loop integral (now)':>20} {'defect':>12}")
    xi = solver.flow.xi_general()
    for m in range(cfg.realizations):
        u_tilde = stochastic_velocity(solver.flow, solver.labels_u, m)
        out = circulation(
            solver.grid,
            solver.labels_u,
            u_tilde,
            xi[m],
            solver.flow.shifts[m],
            circle,
        )
        print(
            f"{m:>3} {out['gamma_initial']:>20.10f} "
            f"{out['gamma_transported']:>20.10f} {out['defect']:>12.2e}"
        )


if __name__ == "__main__":
    main()
