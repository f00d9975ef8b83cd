"""Exception types shared across the package."""


class SLNSError(Exception):
    """Base class for solver errors. ``exit_code`` is used by the CLI."""

    exit_code = 1


class ConfigError(SLNSError):
    """Invalid or unreadable configuration."""

    exit_code = 1


class CFLViolation(SLNSError):
    """Time step too large for the current velocity field."""

    exit_code = 2


class NonInvertible(SLNSError):
    """A flow map folds (``det(I + grad xi) <= 0`` at a grid node) or its
    inversion (fixed-point iteration, Newton fallback) did not converge.

    Usually means the step is too large or the grid too coarse for the
    displacement being inverted.
    """

    exit_code = 3


class NonFiniteVelocity(SLNSError):
    """The velocity holds a NaN or an infinity, at the start of a step or
    after a pass's recovery."""

    exit_code = 4
