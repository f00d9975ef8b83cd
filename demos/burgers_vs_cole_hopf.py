"""Viscous Burgers by averaging noisy characteristics, against Cole-Hopf.

The 1D velocity is evolved with no diffusion operator at all: particle
maps get kicked by Brownian increments, are inverted back to labels, and
the velocity is the ensemble average of the transported initial data.
The exact Cole-Hopf solution provides the yardstick.

When the labels reset every step, every realization is one core map
translated by its Gaussian kick, and the average over the kicks is taken
exactly (the heat multiplier exp(-nu k^2 dt)): the error is the time
splitting's alone, the same for every ensemble size M and every seed. In
two-step label windows each realization keeps its own map, the average is
a Monte Carlo sum, and its error melts at the M^(-1/2) rate.

Run:  python3 demos/burgers_vs_cole_hopf.py
"""

import numpy as np

from slns import SolverConfig, run
from slns.reference import cole_hopf_burgers

L = 2 * np.pi
NU = 0.1
T = 0.5
T_WINDOW = 0.002  # one two-step label window
WINDOW_SEEDS = range(32)


def config(m, seed=0, t_end=T, reset_interval=1):
    return SolverConfig(
        equation="burgers",
        dim=1,
        n=256,
        length=L,
        nu=NU,
        dt=1e-3,
        t_end=t_end,
        realizations=m,
        reset_interval=reset_interval,
        seed=seed,
        initial="sine_mode",
        initial_params={"mode": 1, "amplitude": 1.0},
    )


def rms_error(res, exact):
    return float(np.sqrt(np.mean((res.velocity.values[0] - exact) ** 2)))


def main():
    x = np.arange(256) * L / 256
    exact = cole_hopf_burgers(-np.cos(x), L, NU, T, x)

    print(f"viscous Burgers, u0 = sin x, nu = {NU}, t = {T}, labels reset every step")
    print(f"{'M':>6} {'rms error':>12}")
    for m in (256, 1024, 4096):
        print(f"{m:>6} {rms_error(run(config(m)), exact):>12.3e}")
    print("the exact average: one error for every M, the time splitting's")

    exact_w = cole_hopf_burgers(-np.cos(x), L, NU, T_WINDOW, x)
    print(f"\none two-step label window, t = {T_WINDOW}, rms over {len(WINDOW_SEEDS)} seeds")
    print(f"{'M':>6} {'rms error':>12}")
    errors = {}
    for m in (64, 256, 1024):
        errs = [rms_error(run(config(m, s, T_WINDOW, 2)), exact_w) for s in WINDOW_SEEDS]
        errors[m] = float(np.sqrt(np.mean(np.square(errs))))
        print(f"{m:>6} {errors[m]:>12.3e}")

    ms = np.array(sorted(errors))
    slope = np.polyfit(np.log(ms), np.log([errors[m] for m in ms]), 1)[0]
    print(f"\nobserved Monte Carlo rate: M^{slope:+.2f}   (theory: -1/2)")

    try:
        import matplotlib

        matplotlib.use("Agg")
        import matplotlib.pyplot as plt

        res = run(config(4096))
        fig, ax = plt.subplots(figsize=(7, 4))
        ax.plot(x, np.sin(x), "k:", label="initial")
        ax.plot(x, exact, "k-", lw=2, label="Cole-Hopf")
        ax.plot(x, res.velocity.values[0], "r--", label="stochastic Lagrangian, M=4096")
        ax.set_xlabel("x")
        ax.set_ylabel("u")
        ax.legend()
        fig.tight_layout()
        fig.savefig("burgers_vs_cole_hopf.png", dpi=130)
        print("wrote burgers_vs_cole_hopf.png")
    except ImportError:
        pass


if __name__ == "__main__":
    main()
