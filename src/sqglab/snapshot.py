"""Binary field snapshots.

Layout (little endian): magic ``SQG1``, format version (u32), n (u32),
box length L (f64), time t (f64), gamma (f64), kappa (f64), then the
real-space field values as n*n f64, row major with the second axis fastest.
Snapshots store grid values rather than spectra so they stay inspectable
with generic tools; spectra are recomputed on load.
"""

from __future__ import annotations

import contextlib
import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import SnapshotFormatError
from .spectral import Grid, RealField

MAGIC = b"SQG1"
VERSION = 1
_HEADER = struct.Struct("<4sII4d")


@dataclass(frozen=True)
class Snapshot:
    field: RealField
    t: float
    gamma: float
    kappa: float


def write_snapshot(path, field: RealField, t: float, gamma: float, kappa: float):
    """Write a snapshot atomically: into a temporary file beside ``path``,
    then renamed over it, so a failed write leaves any previous file whole."""
    values = np.ascontiguousarray(field.values, dtype="<f8")
    header = _HEADER.pack(MAGIC, VERSION, field.grid.n, field.grid.length,
                          float(t), float(gamma), float(kappa))
    tmp = os.fspath(path) + ".tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(header)
            fh.write(values.tobytes())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def read_snapshot(path) -> Snapshot:
    """Read a snapshot, raising ``SnapshotFormatError`` for anything that is
    not a whole snapshot of finite values on a valid grid."""
    with open(path, "rb") as fh:
        raw = fh.read(_HEADER.size)
        if len(raw) < _HEADER.size:
            raise SnapshotFormatError(f"{path}: truncated header")
        magic, version, n, length, t, gamma, kappa = _HEADER.unpack(raw)
        if magic != MAGIC:
            raise SnapshotFormatError(f"{path}: bad magic {magic!r}")
        if version != VERSION:
            raise SnapshotFormatError(f"{path}: unsupported version {version}")
        if n % 2 != 0 or n < 8:
            raise SnapshotFormatError(f"{path}: grid size {n} is not even and >= 8")
        if not (0.0 < length < math.inf and math.isfinite(2.0 * math.pi / length)):
            raise SnapshotFormatError(f"{path}: box length {length!r} is not usable")
        for name, value in (("time", t), ("gamma", gamma), ("kappa", kappa)):
            if not math.isfinite(value):
                raise SnapshotFormatError(f"{path}: {name} is {value!r}")
        expected = n * n * 8
        size = os.fstat(fh.fileno()).st_size - _HEADER.size
        if size != expected:
            raise SnapshotFormatError(
                f"{path}: payload has {size} bytes, expected {expected}")
        payload = fh.read(expected)
    values = np.frombuffer(payload, dtype="<f8").reshape(n, n).copy()
    if not np.all(np.isfinite(values)):
        raise SnapshotFormatError(f"{path}: field values are not all finite")
    grid = Grid(n, length)
    return Snapshot(field=RealField(grid, values), t=t, gamma=gamma, kappa=kappa)
