import numpy as np
import pytest

from vxsim.errors import FieldFormatError
from vxsim.fieldio import MAGIC, read_field, write_field
from vxsim.grid import Field, make_grid


@pytest.fixture
def sample_field():
    grid = make_grid(8, 8, 4.0, 2.0)
    rng = np.random.default_rng(42)
    vals = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    return Field(grid=grid, values=vals)


def test_round_trip_is_exact(tmp_path, sample_field):
    path = tmp_path / "f.vxf"
    write_field(path, sample_field)
    back = read_field(path)
    assert back.grid == sample_field.grid
    assert np.array_equal(back.values, sample_field.values)


def test_write_is_deterministic(tmp_path, sample_field):
    a = tmp_path / "a.vxf"
    b = tmp_path / "b.vxf"
    write_field(a, sample_field)
    write_field(b, sample_field)
    assert a.read_bytes() == b.read_bytes()


def test_header_layout(tmp_path, sample_field):
    path = tmp_path / "f.vxf"
    write_field(path, sample_field)
    raw = path.read_bytes()
    assert raw[:4] == MAGIC
    assert len(raw) == 4 + 4 + 4 + 8 + 8 + 8 * 8 * 16


def test_bad_magic(tmp_path, sample_field):
    path = tmp_path / "f.vxf"
    write_field(path, sample_field)
    raw = bytearray(path.read_bytes())
    raw[:4] = b"NOPE"
    path.write_bytes(bytes(raw))
    with pytest.raises(FieldFormatError, match="magic"):
        read_field(path)


def test_truncated_header(tmp_path):
    path = tmp_path / "f.vxf"
    path.write_bytes(b"VXF1\x08")
    with pytest.raises(FieldFormatError, match="truncated"):
        read_field(path)


def test_truncated_payload(tmp_path, sample_field):
    path = tmp_path / "f.vxf"
    write_field(path, sample_field)
    raw = path.read_bytes()
    path.write_bytes(raw[:-8])
    with pytest.raises(FieldFormatError, match="payload"):
        read_field(path)


def test_header_grid_contract_enforced(tmp_path, sample_field):
    import struct

    path = tmp_path / "f.vxf"
    body = b"\x00" * (7 * 8 * 16)
    path.write_bytes(struct.pack("<4sIIdd", MAGIC, 7, 8, 4.0, 2.0) + body)
    from vxsim.errors import GridSizeError

    with pytest.raises(GridSizeError):
        read_field(path)
    # an infinite box passes ``lx > 0`` but spans no finite grid
    body = b"\x00" * (4 * 4 * 16)
    path.write_bytes(struct.pack("<4sIIdd", MAGIC, 4, 4, float("inf"), 1.0) + body)
    with pytest.raises(GridSizeError):
        read_field(path)
