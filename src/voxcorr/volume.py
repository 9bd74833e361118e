"""Dense 3D volume containers and resampling primitives.

All grids are C-ordered numpy arrays indexed [z, y, x] (x fastest), so the
linear index of voxel (x, y, z) is ((z*ny)+y)*nx + x. Logical dimensions are
reported as (nx, ny, nz). Displacements are in voxel units; voxel_size is
metadata in micrometers.
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


def trilinear_gather(vol: np.ndarray, px, py, pz, with_grad: bool = False):
    """Trilinear interpolation of vol[z, y, x] at continuous points (px, py, pz).

    Coordinates are clamped to [0, n-1] per axis (edge policy), which makes the
    sampling total. With with_grad=True also returns d(value)/d(p) per axis;
    the clamp zeroes the gradient outside the open interval (0, n-1).
    """
    nz, ny, nx = vol.shape
    px = np.asarray(px, dtype=np.result_type(px, np.float32))
    py = np.asarray(py, dtype=px.dtype)
    pz = np.asarray(pz, dtype=px.dtype)

    cx = np.clip(px, 0.0, nx - 1)
    cy = np.clip(py, 0.0, ny - 1)
    cz = np.clip(pz, 0.0, nz - 1)

    x0 = np.minimum(np.floor(cx).astype(np.intp), nx - 2) if nx > 1 else np.zeros(cx.shape, np.intp)
    y0 = np.minimum(np.floor(cy).astype(np.intp), ny - 2) if ny > 1 else np.zeros(cy.shape, np.intp)
    z0 = np.minimum(np.floor(cz).astype(np.intp), nz - 2) if nz > 1 else np.zeros(cz.shape, np.intp)
    x0 = np.maximum(x0, 0)
    y0 = np.maximum(y0, 0)
    z0 = np.maximum(z0, 0)
    fx = cx - x0
    fy = cy - y0
    fz = cz - z0

    x1 = np.minimum(x0 + 1, nx - 1)
    y1 = np.minimum(y0 + 1, ny - 1)
    z1 = np.minimum(z0 + 1, nz - 1)

    v000 = vol[z0, y0, x0]
    v001 = vol[z0, y0, x1]
    v010 = vol[z0, y1, x0]
    v011 = vol[z0, y1, x1]
    v100 = vol[z1, y0, x0]
    v101 = vol[z1, y0, x1]
    v110 = vol[z1, y1, x0]
    v111 = vol[z1, y1, x1]

    c00 = v000 + fx * (v001 - v000)
    c01 = v010 + fx * (v011 - v010)
    c10 = v100 + fx * (v101 - v100)
    c11 = v110 + fx * (v111 - v110)
    c0 = c00 + fy * (c01 - c00)
    c1 = c10 + fy * (c11 - c10)
    out = c0 + fz * (c1 - c0)

    if not with_grad:
        return out

    # d/dfx: difference of x-neighbours, interpolated along y and z
    dx00 = v001 - v000
    dx01 = v011 - v010
    dx10 = v101 - v100
    dx11 = v111 - v110
    gx = (dx00 + fy * (dx01 - dx00)) * (1 - fz) + (dx10 + fy * (dx11 - dx10)) * fz
    gy = ((c01 - c00) * (1 - fz) + (c11 - c10) * fz)
    gz = c1 - c0

    # clamp kills the dependence on p outside the interior
    gx = gx * ((px > 0) & (px < nx - 1))
    gy = gy * ((py > 0) & (py < ny - 1))
    gz = gz * ((pz > 0) & (pz < nz - 1))
    return out, (gx, gy, gz)


def trilinear_sample(vol: ScalarVolume, point) -> float:
    """Sample one continuous (x, y, z) point in voxel units; edge-clamped."""
    x, y, z = (float(c) for c in point)
    if not (np.isfinite(x) and np.isfinite(y) and np.isfinite(z)):
        raise VolumeError(f"sample point must be finite, got {point}")
    return float(trilinear_gather(vol.data, np.array([x]), np.array([y]), np.array([z]))[0])


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


def sample_field(disp: np.ndarray, px, py, pz) -> np.ndarray:
    """Sample each channel of disp[3, z, y, x] at continuous points; stacked result."""
    return np.stack([trilinear_gather(disp[c], px, py, pz) for c in range(3)])


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
        g = -sample_field(u, xx + g[0], yy + g[1], zz + g[2])
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
