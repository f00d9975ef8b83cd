"""Field snapshot I/O.

Binary layout (little-endian), magic ``SLNSF1``:

========  ======  =======================================
offset    type    meaning
========  ======  =======================================
0         6s      magic ``b"SLNSF1"``
6         u32     dim
10        u32     n (points per dimension)
14        f64     period length L
22        u32     component count
26        f64     time stamp
34        f64[]   values, C order, shape (c,) + (n,)*dim
========  ======  =======================================
"""

from __future__ import annotations

import os
import struct
from pathlib import Path

import numpy as np

from .grid import Field, PeriodicGrid

MAGIC = b"SLNSF1"
_HEADER = struct.Struct("<6sIIdId")


def write_snapshot(path: str | Path, field: Field, time: float) -> None:
    g = field.grid
    header = _HEADER.pack(MAGIC, g.dim, g.n, g.length, field.components, float(time))
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(field.values, dtype="<f8").tobytes())


def read_snapshot(path: str | Path) -> tuple[Field, float]:
    with open(path, "rb") as fh:
        raw = fh.read(_HEADER.size)
        if len(raw) != _HEADER.size:
            raise ValueError(f"{path}: truncated header")
        magic, dim, n, length, ncomp, time = _HEADER.unpack(raw)
        if magic != MAGIC:
            raise ValueError(f"{path}: bad magic {magic!r}")
        grid = PeriodicGrid(dim, n, length)
        count = ncomp * grid.num_points
        # a corrupt header may announce more data than the file holds
        if os.fstat(fh.fileno()).st_size < _HEADER.size + count * 8:
            raise ValueError(f"{path}: truncated payload")
        payload = fh.read(count * 8)
        data = np.frombuffer(payload, dtype="<f8")
        values = data.reshape((ncomp,) + grid.shape).astype(np.float64)
    return Field(grid, values), float(time)
