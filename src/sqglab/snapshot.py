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

from .errors import ParameterError, SnapshotFormatError
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


def _refusal(n, t, gamma, kappa, size, values=None):
    """Why ``read_snapshot`` refuses, and so ``write_snapshot`` too, an n x n
    snapshot with this header, payload size and field values; else None.
    Values in a shape other than (n, n) are refused too: a read hands them
    back reshaped."""
    for name, value in (("time", t), ("gamma", gamma), ("kappa", kappa)):
        if not math.isfinite(value):
            return f"{name} is {value!r}"
    if t < 0.0:  # runs start at t = 0
        return f"time {t!r} is negative"
    if size != n * n * 8:
        return f"payload has {size} bytes, expected {n * n * 8}"
    if values is not None and values.shape != (n, n):
        return f"field values have shape {values.shape}, expected {(n, n)}"
    if values is not None and not np.all(np.isfinite(values)):
        return "field values are not all finite"


def write_snapshot(path, field: RealField, t: float, gamma: float, kappa: float):
    """Write a snapshot atomically: into a temporary file beside ``path``,
    then renamed over it, so a failed write leaves any previous file whole.
    What ``read_snapshot`` would refuse raises ``ParameterError`` before
    anything is written."""
    values = np.ascontiguousarray(field.values, dtype="<f8")
    t, gamma, kappa = float(t), float(gamma), float(kappa)
    if reason := _refusal(field.grid.n, t, gamma, kappa, values.nbytes, values):
        raise ParameterError(f"cannot write {path}: {reason}")
    header = _HEADER.pack(MAGIC, VERSION, field.grid.n, field.grid.length,
                          t, gamma, kappa)
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
    not a whole snapshot of finite values on a valid grid at a time >= 0."""
    with open(path, "rb") as fh:
        raw = fh.read(_HEADER.size)
        if len(raw) < _HEADER.size:
            raise SnapshotFormatError(f"{path}: truncated header")
        magic, version, n, length, t, gamma, kappa = _HEADER.unpack(raw)
        if magic != MAGIC:
            raise SnapshotFormatError(f"{path}: bad magic {magic!r}")
        if version != VERSION:
            raise SnapshotFormatError(f"{path}: unsupported version {version}")
        size = os.fstat(fh.fileno()).st_size - _HEADER.size
        if reason := _refusal(n, t, gamma, kappa, size):
            raise SnapshotFormatError(f"{path}: {reason}")
        # built only once the file size vouches for n
        try:
            grid = Grid(n, length)
        except ParameterError as exc:
            raise SnapshotFormatError(f"{path}: {exc}") from None
        payload = fh.read(size)
    values = np.frombuffer(payload, dtype="<f8").reshape(n, n).copy()
    if reason := _refusal(n, t, gamma, kappa, size, values):
        raise SnapshotFormatError(f"{path}: {reason}")
    return Snapshot(field=RealField(grid, values), t=t, gamma=gamma, kappa=kappa)
