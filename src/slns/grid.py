"""Uniform periodic grids and sampled fields.

A :class:`PeriodicGrid` is a uniform collocation grid on the torus
``[0, L)^d`` with ``d`` in {1, 2, 3}. A :class:`Field` stores one or more
real components sampled at the grid nodes; velocity, vorticity and map
displacements all live in this container.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


_coordinates: dict[PeriodicGrid, np.ndarray] = {}


@dataclass(frozen=True)
class PeriodicGrid:
    """Uniform grid on ``[0, length)^dim`` with ``n`` points per dimension.

    ``n`` must be a power of two (and at least 8) so that all spectral
    operators stay FFT-friendly. Coordinates are understood modulo
    ``length``; use :meth:`wrap_centered` rather than ad-hoc modulo
    arithmetic so displacements wrap consistently everywhere.
    """

    dim: int
    n: int
    length: float

    def __post_init__(self) -> None:
        if self.dim not in (1, 2, 3):
            raise ValueError(f"dim must be 1, 2 or 3, got {self.dim}")
        if self.n < 8 or not _is_power_of_two(self.n):
            raise ValueError(f"n must be a power of two >= 8, got {self.n}")
        if not (self.length > 0.0 and np.isfinite(self.length)):
            raise ValueError(f"length must be positive and finite, got {self.length}")

    @property
    def spacing(self) -> float:
        return self.length / self.n

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.n,) * self.dim

    @property
    def num_points(self) -> int:
        return self.n**self.dim

    @property
    def cell_volume(self) -> float:
        return self.spacing**self.dim

    def axis(self) -> np.ndarray:
        """1D coordinate array ``0, h, 2h, ...`` shared by every dimension."""
        return np.arange(self.n) * self.spacing

    def coordinates(self) -> np.ndarray:
        """Node coordinates, shape ``(dim,) + shape``: one read-only array
        per grid, built on first use and shared by every caller."""
        coords = _coordinates.get(self)
        if coords is None:
            coords = np.stack(np.meshgrid(*([self.axis()] * self.dim), indexing="ij"))
            coords.flags.writeable = False
            _coordinates[self] = coords
        return coords

    def wrap_centered(self, dx: np.ndarray) -> np.ndarray:
        """Map displacements into ``[-length/2, length/2)`` by subtracting
        the nearest whole number of periods, ``dx - L floor(dx/L + 1/2)``.

        A displacement already shorter than ``length/2`` comes back
        unchanged, bit for bit (no rounding to the period's ulp).
        """
        return dx - self.length * np.floor(dx / self.length + 0.5)


class Field:
    """Real-valued field sampled on a :class:`PeriodicGrid`.

    ``values`` has shape ``(components,) + grid.shape``; scalars use a
    single component, vectors ``dim`` components, and matrix-valued fields
    (Jacobians) ``dim * dim``. Values are validated to be finite on
    construction, so NaN/Inf never leak past an API boundary.
    """

    __slots__ = ("grid", "values")

    def __init__(self, grid: PeriodicGrid, values: np.ndarray):
        values = np.asarray(values, dtype=np.float64)
        if values.ndim == grid.dim:
            values = values[np.newaxis]
        if values.shape[1:] != grid.shape:
            raise ValueError(
                f"values shape {values.shape} does not match grid shape {grid.shape}"
            )
        if not np.all(np.isfinite(values)):
            raise ValueError("field values must be finite")
        self.grid = grid
        self.values = values

    @classmethod
    def from_callable(cls, grid: PeriodicGrid, fn, components: int | None = None) -> "Field":
        """Sample ``fn`` at the nodes. ``fn`` maps ``(dim,)+shape`` coords to
        ``(components,)+shape`` values (or ``shape`` for scalars)."""
        vals = np.asarray(fn(grid.coordinates()), dtype=np.float64)
        if vals.ndim == grid.dim:
            vals = vals[np.newaxis]
        if components is not None and vals.shape[0] != components:
            raise ValueError(f"expected {components} components, got {vals.shape[0]}")
        return cls(grid, vals)

    @property
    def components(self) -> int:
        return self.values.shape[0]

    @property
    def is_vector(self) -> bool:
        return self.components == self.grid.dim

    def copy(self) -> "Field":
        return Field(self.grid, self.values.copy())

    def max_norm(self) -> float:
        return float(np.max(np.abs(self.values)))

    def l2_norm(self) -> float:
        """Discrete L2 norm, ``sqrt(sum |f|^2 h^d)``."""
        return float(np.sqrt(np.sum(self.values**2) * self.grid.cell_volume))

    def mean(self) -> np.ndarray:
        """Spatial mean per component, shape ``(components,)``."""
        axes = tuple(range(1, self.values.ndim))
        return self.values.mean(axis=axes)

    def __add__(self, other: "Field") -> "Field":
        self._check_compatible(other)
        return Field(self.grid, self.values + other.values)

    def __sub__(self, other: "Field") -> "Field":
        self._check_compatible(other)
        return Field(self.grid, self.values - other.values)

    def __mul__(self, scalar: float) -> "Field":
        return Field(self.grid, self.values * scalar)

    __rmul__ = __mul__

    def _check_compatible(self, other: "Field") -> None:
        if other.grid != self.grid or other.components != self.components:
            raise ValueError("fields are not defined on the same grid/layout")

    def __repr__(self) -> str:
        g = self.grid
        return f"Field(components={self.components}, dim={g.dim}, n={g.n}, L={g.length})"


def l2_inner(a: Field, b: Field) -> float:
    """Discrete L2 inner product ``sum(a . b) h^d``."""
    a._check_compatible(b)
    return float(np.sum(a.values * b.values) * a.grid.cell_volume)
