import numpy as np
import pytest

from slns.grid import Field, PeriodicGrid
from slns.reference import taylor_green_2d
from slns.snapshots import MAGIC, read_snapshot, write_snapshot


class TestBinaryFormat:
    def test_roundtrip(self, tmp_path, grid2d):
        f = taylor_green_2d(grid2d)
        p = tmp_path / "field.slnsf"
        write_snapshot(p, f, time=0.375)
        g, t = read_snapshot(p)
        assert t == 0.375
        assert g.grid == grid2d
        assert np.array_equal(g.values, f.values)

    def test_header_layout(self, tmp_path):
        grid = PeriodicGrid(1, 16, 2.5)
        f = Field(grid, np.arange(16, dtype=float)[None] / 16)
        p = tmp_path / "f.slnsf"
        write_snapshot(p, f, time=1.5)
        raw = p.read_bytes()
        assert raw[:6] == MAGIC
        assert len(raw) == 34 + 16 * 8
        dim = int.from_bytes(raw[6:10], "little")
        n = int.from_bytes(raw[10:14], "little")
        assert (dim, n) == (1, 16)
        assert np.frombuffer(raw[14:22], "<f8")[0] == 2.5

    def test_bad_magic_rejected(self, tmp_path, grid1d):
        f = Field.from_callable(grid1d, lambda c: np.sin(c[0]))
        p = tmp_path / "f.slnsf"
        write_snapshot(p, f, 0.0)
        data = bytearray(p.read_bytes())
        data[:6] = b"BOGUS1"
        p.write_bytes(bytes(data))
        with pytest.raises(ValueError, match="magic"):
            read_snapshot(p)

    def test_truncation_rejected(self, tmp_path, grid1d):
        f = Field.from_callable(grid1d, lambda c: np.sin(c[0]))
        p = tmp_path / "f.slnsf"
        write_snapshot(p, f, 0.0)
        p.write_bytes(p.read_bytes()[:-9])
        with pytest.raises(ValueError, match="truncated"):
            read_snapshot(p)

