"""Bit-exact float32 container for volumes, displacement fields and checkpoints.

Layout (little-endian): magic "VVOL" | u32 version=1 | u32 dtype=0 (float32)
| u32 channels | u32 nx | u32 ny | u32 nz | f32 vx | f32 vy | f32 vz
(micrometers) | u32 meta_len | meta_len bytes UTF-8 JSON | payload of
`channels` planes, each nz*ny*nx float32 values indexed ((z*ny)+y)*nx + x.

The reader is strict: a file shorter or longer than its header implies, another
magic, version or dtype code, or metadata that is not UTF-8 JSON raises
VvolError. Payloads are finite: write_raw refuses others (VvolError), vvol_read
and checkpoint_load reject them. A model checkpoint (model.checkpoint_save) is
one such file: its metadata is the ModelConfig and its payload one row (1
channel, nz = ny = 1) holding every parameter tensor in param_shapes order.
"""
from __future__ import annotations

import json
import os
import struct

import numpy as np

from .volume import DisplacementField, ScalarVolume, VolumeError, blocks

MAGIC = b"VVOL"
VERSION = 1
FLOAT32 = 0  # the only dtype code
_HEADER = struct.Struct("<4sII IIII fff I")


class VvolError(IOError):
    pass


def _check_finite(data: np.ndarray, path, error: type[Exception]) -> None:
    """Raise error naming path unless data[c, z, y, x] is all finite; one block
    (volume.blocks) at a time, so no whole-volume bool is made."""
    if not all(np.isfinite(data[b]).all() for b in blocks(data.shape)):
        raise error(f"{path}: the payload holds non-finite values")


def write_raw(path, data: np.ndarray, voxel_size=(1.0, 1.0, 1.0), meta: dict | None = None) -> None:
    """Write a float32 [c, nz, ny, nx] (or [nz, ny, nx]) array."""
    if data.ndim == 3:
        data = data[None]
    if data.ndim != 4:
        raise VvolError(f"expected 3D or 4D array, got shape {data.shape}")
    if data.dtype != np.float32:
        raise VvolError(f"dtype {data.dtype} not storable; cast to float32 first")
    _check_finite(data, path, VvolError)  # before the file is opened
    c, nz, ny, nx = data.shape
    vx, vy, vz = (float(v) for v in voxel_size)
    meta_bytes = json.dumps(meta or {}, sort_keys=True).encode("utf-8")
    header = _HEADER.pack(MAGIC, VERSION, FLOAT32, c, nx, ny, nz, vx, vy, vz, len(meta_bytes))
    with open(path, "wb") as f:
        f.write(header + meta_bytes)
        f.write(np.ascontiguousarray(data, dtype="<f4"))  # the payload, with no bytes copy of it


def read_raw(path) -> tuple[np.ndarray, tuple[float, float, float], dict]:
    """Read back (data[c, nz, ny, nx], voxel_size, meta). The payload is read
    straight into the returned array."""
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        head = f.read(_HEADER.size)
        if len(head) < _HEADER.size:
            raise VvolError(f"{path}: truncated, file shorter than header ({len(head)} bytes)")
        magic, version, dtype_code, c, nx, ny, nz, vx, vy, vz, meta_len = _HEADER.unpack(head)
        if magic != MAGIC:
            raise VvolError(f"{path}: bad magic {magic!r}")
        if version != VERSION:
            raise VvolError(f"{path}: unsupported version {version}")
        if dtype_code != FLOAT32:
            raise VvolError(f"{path}: unsupported dtype code {dtype_code}")
        end = _HEADER.size + meta_len + 4 * c * nz * ny * nx
        if size < end:
            raise VvolError(f"{path}: truncated, {size} bytes where the header implies {end}")
        if size > end:
            raise VvolError(f"{path}: {size - end} trailing bytes after the payload")
        try:
            meta = json.loads(f.read(meta_len).decode("utf-8")) if meta_len else {}
        except ValueError as e:  # bad UTF-8 or bad JSON
            raise VvolError(f"{path}: unreadable metadata: {e}") from e
        data = np.empty((c, nz, ny, nx), dtype="<f4")
        if f.readinto(data) != data.nbytes:  # the file shrank since its size was read
            raise VvolError(f"{path}: truncated while reading the payload")
    return data, (vx, vy, vz), meta


def vvol_write(path, obj: ScalarVolume | DisplacementField) -> None:
    """Write a ScalarVolume or DisplacementField as float32."""
    if not isinstance(obj, (ScalarVolume, DisplacementField)):
        raise VvolError(f"cannot serialize object of type {type(obj).__name__}")
    with np.errstate(over="ignore"):  # a value beyond float32's range becomes inf, which write_raw refuses
        write_raw(path, obj.data.astype(np.float32, copy=False), obj.voxel_size)


def vvol_read(path):
    """Read a file back into the matching domain type (by channel count)."""
    data, voxel_size, _meta = read_raw(path)
    _check_finite(data, path, VolumeError)
    c = data.shape[0]
    if c == 1:
        return ScalarVolume(data[0], voxel_size)
    if c == 3:
        return DisplacementField(data, voxel_size)
    raise VvolError(f"{path}: no domain type for {c} channels")
