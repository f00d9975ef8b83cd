"""Ensembles of spatially uniform Brownian increments.

Every increment is a pure function of ``(seed, realization, step)``: the
``(M, dim)`` increment block of step ``j`` is drawn in one vectorized pass
from a generator seeded by ``SeedSequence(seed, spawn_key=(j,))`` and
realization ``m`` owns row ``m``. Because numpy fills the block
sequentially, row ``m`` never depends on how many rows were requested, so

* results do not depend on query order;
* a smaller ensemble built with the same seed and ``substeps``
  reproduces the first rows of a larger one bit for bit (common random
  numbers across ensemble sizes).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class WienerEnsemble:
    """``realizations`` independent ``dim``-dimensional Wiener paths.

    ``substeps > 1`` refines the underlying paths: the increment reported
    for step ``j`` is the sum of ``substeps`` finer increments keyed at the
    base resolution. Ensembles with the same seed whose ``substeps`` are
    multiples of each other therefore share Brownian paths, which is what
    keeps the noise common across time-step refinement studies.
    """

    realizations: int
    dim: int
    seed: int
    substeps: int = 1

    def __post_init__(self) -> None:
        if self.realizations < 1:
            raise ValueError("need at least one realization")
        if self.dim not in (1, 2, 3):
            raise ValueError("dim must be 1, 2 or 3")
        if self.substeps < 1:
            raise ValueError("substeps must be >= 1")

    def _block(self, base_step: int, rows: int) -> np.ndarray:
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(base_step,))
        return np.random.default_rng(ss).standard_normal((rows, self.dim))

    def increments(self, step: int, dt: float) -> np.ndarray:
        """Increments ``dW ~ Normal(0, dt I)`` for all realizations at one
        step; shape ``(realizations, dim)``."""
        if dt <= 0:
            raise ValueError("dt must be positive")
        scale = np.sqrt(dt / self.substeps)
        base = step * self.substeps
        out = self._block(base, self.realizations)
        for j in range(1, self.substeps):
            out += self._block(base + j, self.realizations)
        return out * scale
