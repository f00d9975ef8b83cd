"""The benchmark's fixed workloads and their correctness gates.

Every workload uses L = 2 pi, cubic interpolation, two Picard passes, one
worker and the direct SDE backend, so only the listed fields differ.

* ``burgers1d-shared``: the step is almost all spectral averaging (the
  characteristic function of the shifts runs twice per step), while
  inversion and interpolation are a few percent. A cache of that
  multiplier or a NUFFT shows here; inversion work does not.
* ``tg2d-shared``: the paper's common case (labels reset every step), in
  which every module costs something: inversion, Weber recovery with its
  multiplier, the probe spread and the vorticity transport.
* ``tg2d-window``: as ``tg2d-shared`` with 16 realizations and a label
  window of four steps, so three steps in four keep one map per
  realization and average with ``reduce_mean``. The same modules are used
  the other way round, so a change that favours one representation at the
  other's expense shows here.

``steps`` is the length of one trajectory, ``seeds`` the number of
distinct Brownian seeds whose errors are averaged per run (the error
against the oracle is dominated by a few Monte Carlo modes, so a single
seed's error scatters by 60-75% of its mean), and ``calibration`` the
host-speed kernel that resembles the workload's hot path (see ``run.py``).
Every untraced run integrates all its distinct seeds, so they set its
shortest length: under 30 s for the shared workloads and 33 to 51 s for
``tg2d-window`` on a 2-vCPU x86 VM, set-up probes included.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass
from pathlib import Path

import numpy as np

COMMON = dict(
    length=2.0 * np.pi,
    interpolation="cubic",
    picard_iters=2,
    workers=1,
    backend="direct_sde",
)


@dataclass(frozen=True)
class Workload:
    name: str
    params: dict
    gate_cfg: str
    steps: int
    seeds: int
    calibration: str

    def config(self, seed: int):
        from slns import SolverConfig

        return SolverConfig(**COMMON, **self.params, t_end=self.steps * self.params["dt"], seed=seed)

    def gate(self, root: Path) -> float:
        """``[compare] rel_l2_max`` of the matching example config."""
        parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
        path = root / "examples_cfg" / self.gate_cfg
        if not parser.read(path):
            raise FileNotFoundError(f"missing gate config {path}")
        return parser.getfloat("compare", "rel_l2_max")


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="burgers1d-shared",
            params=dict(
                equation="burgers",
                dim=1,
                n=256,
                realizations=4096,
                nu=0.1,
                dt=1e-3,
                reset_interval=1,
                initial="sine_mode",
                initial_params={"mode": 1, "amplitude": 1.0},
            ),
            gate_cfg="burgers1d.cfg",
            steps=2,
            seeds=320,
            calibration="phase",
        ),
        Workload(
            name="tg2d-shared",
            params=dict(
                equation="navier_stokes",
                dim=2,
                n=64,
                realizations=1024,
                nu=0.05,
                dt=5e-3,
                reset_interval=1,
                initial="taylor_green_2d",
            ),
            gate_cfg="taylor_green_2d.cfg",
            steps=2,
            seeds=256,
            calibration="spectral",
        ),
        Workload(
            name="tg2d-window",
            params=dict(
                equation="navier_stokes",
                dim=2,
                n=64,
                realizations=16,
                nu=0.05,
                dt=5e-3,
                reset_interval=4,
                initial="taylor_green_2d",
            ),
            gate_cfg="taylor_green_2d.cfg",
            steps=5,
            seeds=24,
            calibration="spectral",
        ),
    )
}
