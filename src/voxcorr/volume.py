"""Dense 3D volume containers and resampling primitives.

All grids are C-ordered numpy arrays indexed [z, y, x] (x fastest), so the
linear index of voxel (x, y, z) is ((z*ny)+y)*nx + x. Logical dimensions are
reported as (nx, ny, nz). Displacements are in voxel units; voxel_size is
metadata in micrometers.

trilinear_gather is the one trilinear sampler. It takes leading channel axes,
vol[..., z, y, x], and samples every channel at the same points with one set
of clamped indices and weights: warp_array passes one channel, invert_field
and the baseline's dense field pass the three displacement channels.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

Vec3 = tuple[float, float, float]
IVec3 = tuple[int, int, int]


class VolumeError(ValueError):
    pass


def _check_grid(a: np.ndarray, name: str) -> None:
    if a.ndim != 3 or min(a.shape) < 1:
        raise VolumeError(f"{name} must be a non-empty 3D array, got shape {a.shape}")


def _check_voxel_size(vs) -> Vec3:
    vx, vy, vz = (float(v) for v in vs)
    if not (vx > 0 and vy > 0 and vz > 0):
        raise VolumeError(f"voxel_size must be strictly positive, got {vs}")
    return (vx, vy, vz)


@dataclass(frozen=True)
class ScalarVolume:
    """Single-channel intensity grid. data[z, y, x], voxel_size in µm (vx, vy, vz)."""

    data: np.ndarray
    voxel_size: Vec3 = (1.0, 1.0, 1.0)

    def __post_init__(self):
        _check_grid(self.data, "data")
        if not np.all(np.isfinite(self.data)):
            raise VolumeError("volume data contains non-finite values")
        object.__setattr__(self, "voxel_size", _check_voxel_size(self.voxel_size))

    @property
    def dims(self) -> IVec3:
        nz, ny, nx = self.data.shape
        return (nx, ny, nz)


@dataclass(frozen=True)
class BinaryVolume:
    """Boolean foreground mask with the same indexing as ScalarVolume."""

    mask: np.ndarray
    voxel_size: Vec3 = (1.0, 1.0, 1.0)

    def __post_init__(self):
        _check_grid(self.mask, "mask")
        if self.mask.dtype != np.bool_:
            object.__setattr__(self, "mask", self.mask.astype(bool))
        object.__setattr__(self, "voxel_size", _check_voxel_size(self.voxel_size))

    @property
    def dims(self) -> IVec3:
        nz, ny, nx = self.mask.shape
        return (nx, ny, nz)

    def count(self) -> int:
        return int(self.mask.sum())


@dataclass(frozen=True)
class DisplacementField:
    """Per-voxel shifts in voxel units, channel-major: data[c, z, y, x], c = (ux, uy, uz)."""

    data: np.ndarray
    voxel_size: Vec3 = (1.0, 1.0, 1.0)

    def __post_init__(self):
        if self.data.ndim != 4 or self.data.shape[0] != 3:
            raise VolumeError(f"displacement data must be [3, nz, ny, nx], got {self.data.shape}")
        if not np.all(np.isfinite(self.data)):
            raise VolumeError("displacement field contains non-finite values")
        object.__setattr__(self, "voxel_size", _check_voxel_size(self.voxel_size))

    @property
    def dims(self) -> IVec3:
        _, nz, ny, nx = self.data.shape
        return (nx, ny, nz)


def grid_coords(shape_zyx, dtype=np.float64) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Broadcastable (zz, yy, xx) index grids for a [z, y, x] array shape."""
    nz, ny, nx = shape_zyx
    zz = np.arange(nz, dtype=dtype)[:, None, None]
    yy = np.arange(ny, dtype=dtype)[None, :, None]
    xx = np.arange(nx, dtype=dtype)[None, None, :]
    return zz, yy, xx


def _cell(p: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Lower corner index and fraction of the clamped coordinate p on an axis of n voxels."""
    c = np.clip(p, 0.0, n - 1)
    i0 = np.zeros(c.shape, np.intp) if n == 1 else np.minimum(np.floor(c).astype(np.intp), n - 2)
    i0 = np.maximum(i0, 0)  # floor(nan) casts to a negative index
    return i0, c - i0


def _lerp(a: np.ndarray, b: np.ndarray, f: np.ndarray) -> np.ndarray:
    """a + f*(b - a), computed in b's buffer when that keeps the promoted dtype."""
    if np.result_type(b, f) != b.dtype:  # e.g. float32 corners and float64 fractions
        return a + f * (b - a)
    b -= a
    b *= f
    b += a
    return b


def trilinear_gather(vol: np.ndarray, px, py, pz, with_grad: bool = False):
    """Trilinear interpolation of vol[..., z, y, x] at continuous points (px, py, pz).

    Leading axes of vol are channels: every channel is sampled at the same
    points, sharing one set of indices and weights, and the result has shape
    vol.shape[:-3] + p.shape. Coordinates are clamped to [0, n-1] per axis
    (edge policy), which makes the sampling total. With with_grad=True also
    returns d(value)/d(p) per axis; the clamp zeroes the gradient outside the
    open interval (0, n-1).
    """
    *lead, nz, ny, nx = vol.shape
    px = np.asarray(px, dtype=np.result_type(px, np.float32))
    py = np.asarray(py, dtype=px.dtype)
    pz = np.asarray(pz, dtype=px.dtype)
    x0, fx = _cell(px, nx)
    y0, fy = _cell(py, ny)
    z0, fz = _cell(pz, nz)

    # corner (z0+a, y0+b, x0+c) sits at flat index i + a*oz + b*oy + c*ox; an
    # axis of one voxel reads its only slice twice
    i = (z0 * ny + y0) * nx + x0
    ox, oy, oz = int(nx > 1), nx * (ny > 1), nx * ny * (nz > 1)
    flat = vol.reshape(*lead, nz * ny * nx)

    def at(o: int) -> np.ndarray:
        return np.take(flat, i + o, axis=-1)

    if not with_grad:
        # corners are read in the order the lerps use them: at most four live at once
        c0 = _lerp(_lerp(at(0), at(ox), fx), _lerp(at(oy), at(oy + ox), fx), fy)
        c1 = _lerp(_lerp(at(oz), at(oz + ox), fx), _lerp(at(oz + oy), at(oz + oy + ox), fx), fy)
        return _lerp(c0, c1, fz)

    # x-differences of the four x-edges, shared by the x-lerps and d/dfx
    edges = (0, oy, oz, oz + oy)
    lo = [at(o) for o in edges]
    dx00, dx01, dx10, dx11 = (at(o + ox) - v for o, v in zip(edges, lo))
    c00, c01, c10, c11 = (v + fx * d for v, d in zip(lo, (dx00, dx01, dx10, dx11)))
    dy0 = c01 - c00
    dy1 = c11 - c10
    c0 = c00 + fy * dy0
    c1 = c10 + fy * dy1
    gz = c1 - c0
    out = c0 + fz * gz

    gx = (dx00 + fy * (dx01 - dx00)) * (1 - fz) + (dx10 + fy * (dx11 - dx10)) * fz
    gy = dy0 * (1 - fz) + dy1 * fz

    # clamp kills the dependence on p outside the interior
    gx = gx * ((px > 0) & (px < nx - 1))
    gy = gy * ((py > 0) & (py < ny - 1))
    gz = gz * ((pz > 0) & (pz < nz - 1))
    return out, (gx, gy, gz)


def warp_array(moving: np.ndarray, disp: np.ndarray, with_grad: bool = False):
    """Warp moving[z, y, x] by disp[3, z, y, x]: out(x) = moving(x + u(x)).

    With with_grad=True also returns (gx, gy, gz), the per-voxel derivatives of
    the output w.r.t. the three displacement channels.
    """
    if moving.shape != disp.shape[1:]:
        raise VolumeError(f"moving {moving.shape} and displacement {disp.shape[1:]} dims differ")
    zz, yy, xx = grid_coords(moving.shape, dtype=np.result_type(disp.dtype, np.float32))
    px = xx + disp[0]
    py = yy + disp[1]
    pz = zz + disp[2]
    return trilinear_gather(moving, px, py, pz, with_grad=with_grad)


def warp(moving: ScalarVolume, disp: DisplacementField) -> ScalarVolume:
    if moving.dims != disp.dims:
        raise VolumeError(f"dims mismatch: moving {moving.dims} vs field {disp.dims}")
    out = warp_array(moving.data, disp.data)
    return ScalarVolume(out.astype(moving.data.dtype, copy=False), moving.voxel_size)


def invert_field(disp: DisplacementField, iterations: int = 8) -> DisplacementField:
    """Fixed-point inverse g of u: g(y) = -u(y + g(y)).

    Converges for the smooth, moderate-amplitude fields used in synthesis;
    warp(warp(V, u), invert_field(u)) then round-trips V on interior voxels.
    """
    if iterations < 1:
        raise VolumeError("iterations must be >= 1")
    u = disp.data.astype(np.float64)
    zz, yy, xx = grid_coords(u.shape[1:])
    g = -u
    for _ in range(iterations):
        g = trilinear_gather(u, xx + g[0], yy + g[1], zz + g[2])
        np.negative(g, out=g)
    return DisplacementField(g.astype(disp.data.dtype, copy=False), disp.voxel_size)


def downsample2(vol: ScalarVolume) -> ScalarVolume:
    """Halve each dimension by 2x2x2 block averaging; trailing odd slices dropped."""
    nz, ny, nx = vol.data.shape
    if min(nx, ny, nz) < 2:
        raise VolumeError(f"all dims must be >= 2 to downsample, got {vol.dims}")
    mz, my, mx = nz // 2, ny // 2, nx // 2
    d = vol.data[: 2 * mz, : 2 * my, : 2 * mx]
    out = d.reshape(mz, 2, my, 2, mx, 2).mean(axis=(1, 3, 5))
    vx, vy, vz = vol.voxel_size
    return ScalarVolume(out.astype(vol.data.dtype, copy=False), (2 * vx, 2 * vy, 2 * vz))


def minmax_normalize(vol: ScalarVolume) -> ScalarVolume:
    lo = float(vol.data.min())
    hi = float(vol.data.max())
    if hi == lo:
        raise VolumeError("cannot min-max normalize a constant volume")
    out = (vol.data.astype(np.float32) - lo) / (hi - lo)
    return ScalarVolume(out, vol.voxel_size)


def crop_or_pad(vol: ScalarVolume, target_dims: IVec3, fill: float = 0.0) -> ScalarVolume:
    """Center-crop axes that are too large, pad symmetrically (extra voxel on the
    high side) where too small. target_dims is (nx, ny, nz)."""
    tx, ty, tz = (int(t) for t in target_dims)
    if min(tx, ty, tz) < 1:
        raise VolumeError(f"target dims must be positive, got {target_dims}")
    out = np.full((tz, ty, tx), fill, dtype=vol.data.dtype)
    src = vol.data

    def spans(n: int, t: int) -> tuple[slice, slice]:
        if n >= t:  # crop: keep the central t, favouring the low side on odd excess
            s = (n - t) // 2
            return slice(s, s + t), slice(0, t)
        p = (t - n) // 2
        return slice(0, n), slice(p, p + n)

    (sz, dz), (sy, dy), (sx, dx) = (
        spans(src.shape[0], tz),
        spans(src.shape[1], ty),
        spans(src.shape[2], tx),
    )
    out[dz, dy, dx] = src[sz, sy, sx]
    return ScalarVolume(out, vol.voxel_size)
