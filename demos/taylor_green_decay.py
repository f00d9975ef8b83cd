"""2D Taylor-Green vortex under the stochastic Lagrangian Navier-Stokes
representation.

Viscosity enters only as the amplitude of the Brownian kicks on the
particle maps. The labels reset every step, so every realization is one
core map translated by its Gaussian kick, and the mean over the kicks is
taken exactly: the heat multiplier exp(-nu |k|^2 dt) on the core-frame
Weber integrand. The decay e^{-4 nu t} of the kinetic energy emerges from
that exact average, with no Monte Carlo error, and the same run results
for any seed or ensemble size. The run is checked against both the
closed-form decay and a classical pseudo-spectral reference integration.

Run:  python3 demos/taylor_green_decay.py
"""

import numpy as np

from slns import SolverConfig, run
from slns.reference import (
    spectral_ns_run,
    taylor_green_2d,
    taylor_green_energy,
)

NU = 0.05
T = 0.5


def main():
    cfg = SolverConfig(
        equation="navier_stokes",
        dim=2,
        n=64,
        nu=NU,
        dt=5e-3,
        t_end=T,
        realizations=1024,
        seed=0,
    )
    res = run(cfg)

    e0 = taylor_green_energy(cfg.length)
    times = res.diagnostics.column("time")
    energy = res.diagnostics.column("energy")
    exact = e0 * np.exp(-4 * NU * times)

    print(f"Taylor-Green, nu = {NU}, N = {cfg.n}, M = {cfg.realizations}")
    print(f"{'t':>6} {'energy':>14} {'energy (exact)':>15} {'rel dev':>10}")
    for i in range(0, len(times), 20):
        print(
            f"{times[i]:>6.2f} {energy[i]:>14.6f} {exact[i]:>15.6f} "
            f"{abs(energy[i] - exact[i]) / e0:>10.2e}"
        )

    ref = spectral_ns_run(taylor_green_2d(cfg.grid()), NU, 1e-3, T)
    rel = (res.velocity - ref).l2_norm() / ref.l2_norm()
    print(f"\nfield vs pseudo-spectral reference: rel L2 = {rel:.3e}")
    print(f"max divergence over the run: {res.diagnostics.column('max_divergence').max():.2e}")
    print(f"max |det(grad X) - 1|:        {res.diagnostics.column('max_det_dev').max():.2e}")

    try:
        import matplotlib

        matplotlib.use("Agg")
        import matplotlib.pyplot as plt

        fig, axes = plt.subplots(1, 2, figsize=(10, 4))
        axes[0].plot(times, exact, "k-", label="exact decay")
        axes[0].plot(times, energy, "r--", label="stochastic Lagrangian")
        axes[0].set_xlabel("t")
        axes[0].set_ylabel("kinetic energy")
        axes[0].legend()
        om = res.vorticity.values[0]
        im = axes[1].imshow(om.T, origin="lower", cmap="RdBu_r", extent=[0, cfg.length] * 2)
        axes[1].set_title("transported vorticity at t = %.2f" % T)
        fig.colorbar(im, ax=axes[1])
        fig.tight_layout()
        fig.savefig("taylor_green_decay.png", dpi=130)
        print("wrote taylor_green_decay.png")
    except ImportError:
        pass


if __name__ == "__main__":
    main()
