"""Portable field dumps.

Binary layout (``VXF1``): magic bytes ``b"VXF1"``, little-endian u32 nx,
u32 ny, f64 lx, f64 ly, then ``nx*ny`` interleaved (re, im) f64 pairs in
row-major order (x index outermost).
"""

from __future__ import annotations

import struct

import numpy as np

from .errors import FieldFormatError
from .grid import Field, make_grid

__all__ = ["MAGIC", "write_field", "read_field"]

MAGIC = b"VXF1"
_HEADER = struct.Struct("<4sIIdd")


def write_field(path, field: Field) -> None:
    """Write a field as a VXF1 dump.

    Output is deterministic: identical grid and values produce bit-identical
    files.
    """
    g = field.grid
    data = np.ascontiguousarray(field.values, dtype="<c16")
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, g.nx, g.ny, g.lx, g.ly))
        fh.write(data.tobytes())


def read_field(path) -> Field:
    """Read a VXF1 dump back into a :class:`Field`.

    Raises
    ------
    FieldFormatError
        On a truncated header, a bad magic marker, or a payload whose length
        does not match the header.
    GridSizeError
        On header sizes that fail the grid contract (see :func:`make_grid`).
    """
    with open(path, "rb") as fh:
        head = fh.read(_HEADER.size)
        if len(head) < _HEADER.size:
            raise FieldFormatError(f"{path}: truncated header")
        magic, nx, ny, lx, ly = _HEADER.unpack(head)
        if magic != MAGIC:
            raise FieldFormatError(f"{path}: bad magic {magic!r}, expected {MAGIC!r}")
        payload = fh.read()
    expected = nx * ny * 16
    if len(payload) != expected:
        raise FieldFormatError(
            f"{path}: payload is {len(payload)} bytes, header implies {expected}"
        )
    grid = make_grid(nx, ny, lx, ly)
    values = np.frombuffer(payload, dtype="<c16").reshape(nx, ny)
    return Field(grid=grid, values=values.astype(np.complex128))

