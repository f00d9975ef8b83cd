"""Stochastic Lagrangian solver for incompressible flow on periodic grids.

Velocity fields are evolved by averaging noisy characteristics: particle
maps follow ``dX = u dt + sqrt(2 nu) dW`` with spatially uniform noise,
the back-to-labels maps ``A = X^{-1}`` are found by fixed-point iteration
from a quadratic Taylor start (damped Newton as the fallback; a folded map
raises), and the velocity
is recovered with the projected Weber formula
``u = E P[(grad^T A)(u0 o A)]`` (plain transport for Burgers, a Helmholtz
filter pair for the alpha model). Viscosity acts only through the noise
amplitude; no diffusion operator is ever applied.
"""

from .errors import CFLViolation, ConfigError, NonFiniteVelocity, NonInvertible, SLNSError
from .flowmap import FlowEnsemble, invert_core
from .grid import Field, PeriodicGrid, l2_inner
from .interp import FieldInterpolator
from .recovery import (
    burgers_velocity,
    circulation,
    forcing_increment,
    stochastic_velocity,
    transported_vorticity_2d,
    transported_vorticity_3d,
    weber_velocity,
)
from .snapshots import read_snapshot, write_snapshot
from .solver import (
    Diagnostics,
    RunResult,
    SolverConfig,
    StochasticSolver,
    convergence_study,
    oracle_solution,
    run,
)
from .spectral import (
    SpectralWorkspace,
    curl,
    divergence,
    gradient,
    helmholtz_invert,
    laplacian,
    leray_project,
    workspace,
)
from .wiener import WienerEnsemble

__version__ = "0.1.0"

__all__ = [
    "CFLViolation",
    "ConfigError",
    "Diagnostics",
    "Field",
    "FieldInterpolator",
    "FlowEnsemble",
    "NonFiniteVelocity",
    "NonInvertible",
    "PeriodicGrid",
    "RunResult",
    "SLNSError",
    "SolverConfig",
    "SpectralWorkspace",
    "StochasticSolver",
    "WienerEnsemble",
    "burgers_velocity",
    "circulation",
    "convergence_study",
    "curl",
    "divergence",
    "forcing_increment",
    "gradient",
    "helmholtz_invert",
    "invert_core",
    "l2_inner",
    "laplacian",
    "leray_project",
    "oracle_solution",
    "read_snapshot",
    "run",
    "stochastic_velocity",
    "transported_vorticity_2d",
    "transported_vorticity_3d",
    "weber_velocity",
    "workspace",
    "write_snapshot",
]
