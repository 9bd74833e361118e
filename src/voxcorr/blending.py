"""Patch tiling and Gaussian-weighted recombination of patch outputs.

Patch grids cover the whole volume: origins step by the stride (at most the
patch size) along each axis and a clamped final origin at dims - patch_size is
appended whenever the regular stepping stops short, so inference never needs
padding. Overlapping [c, p, p, p] patches blend with a Gaussian window of
sigma p / 4 (every weight above exp(-6)). Patches are added in the grid's
z-major order, so the float64 sums cover only the band of p z-planes that a
patch can still reach: once a patch starts at oz, the planes below oz are
divided into the float32 field and shifted out of the band.
"""
from __future__ import annotations

from itertools import product

import numpy as np

from .volume import IVec3, VolumeError


def _axis_origins(n: int, p: int, s: int) -> list[int]:
    out = list(range(0, n - p + 1, s))
    if out[-1] != n - p:
        out.append(n - p)
    return out


def make_patch_grid(dims: IVec3, patch_size: int, stride: int) -> tuple[IVec3, ...]:
    """Patch origins: (x, y, z) corners, sorted lexicographically (z, y, x)."""
    nx, ny, nz = (int(d) for d in dims)
    p, s = int(patch_size), int(stride)
    if p < 1:
        raise VolumeError(f"patch size must be >= 1, got {p}")
    if s < 1:
        raise VolumeError(f"stride must be >= 1, got {s}")
    if s > p:
        raise VolumeError(f"stride {s} exceeds patch size {p}: the grid would leave gaps")
    if p > min(nx, ny, nz):
        raise VolumeError(f"patch size {p} exceeds dims {dims}")
    ax = _axis_origins(nx, p, s)
    ay = _axis_origins(ny, p, s)
    az = _axis_origins(nz, p, s)
    return tuple((x, y, z) for z, y, x in product(az, ay, ax))


def gaussian_window(patch_size: int) -> np.ndarray:
    """Separable patch weight [p, p, p], centred at (p-1)/2, continuous peak 1,
    sigma p / 4."""
    p = int(patch_size)
    sigma = p / 4.0
    i = np.arange(p, dtype=np.float64)
    g = np.exp(-((i - (p - 1) / 2.0) ** 2) / (2.0 * sigma * sigma))
    return g[:, None, None] * g[None, :, None] * g[None, None, :]


class BlendAccumulator:
    """Gaussian-weighted overlap-add of [c, p, p, p] patches into a float32
    field, added in make_patch_grid's z-major order."""

    def __init__(self, dims: IVec3, channels: int, patch_size: int):
        nx, ny, nz = (int(d) for d in dims)
        self.dims = (nx, ny, nz)
        self.channels = int(channels)
        self.patch_size = int(patch_size)
        self.window = gaussian_window(patch_size)
        self.field = np.empty((self.channels, nz, ny, nx), dtype=np.float32)
        self.z0 = 0  # the band holds the sums of planes z0 .. z0 + p - 1
        self.weighted_sum = np.zeros((self.channels, self.patch_size, ny, nx), dtype=np.float64)
        self.weight_sum = np.zeros((self.patch_size, ny, nx), dtype=np.float64)

    def _flush(self, z: int) -> None:
        """Divide planes z0 .. z - 1 into the field and shift them out of the band."""
        p, n = self.patch_size, z - self.z0
        ws, wt = self.weighted_sum[:, :n], self.weight_sum[:n]
        if n > p or np.any(wt == 0.0):
            raise VolumeError(f"uncovered voxels (zero blend weight) in z planes {self.z0}..{z - 1}")
        self.field[:, self.z0:z] = np.divide(ws, wt, out=ws)
        # shift along flat 1-D views: numpy copies those in place, with no temporary
        for band in (*self.weighted_sum, self.weight_sum):
            flat = band.reshape(-1)
            keep = (p - n) * (flat.size // p)
            flat[:keep] = flat[flat.size - keep:]
            flat[keep:] = 0.0
        self.z0 = z

    def add(self, patch_data: np.ndarray, origin: IVec3) -> None:
        """Accumulate a [c, p, p, p] patch at (x, y, z) origin, z no lower than the last."""
        p = self.patch_size
        if patch_data.shape != (self.channels, p, p, p):
            raise VolumeError(
                f"patch shape {patch_data.shape} does not match ({self.channels}, {p}, {p}, {p})"
            )
        ox, oy, oz = (int(o) for o in origin)
        nx, ny, nz = self.dims
        if not (0 <= ox <= nx - p and 0 <= oy <= ny - p and 0 <= oz <= nz - p):
            raise VolumeError(f"patch at {origin} does not fit inside dims {self.dims}")
        if oz < self.z0:
            raise VolumeError(f"patch at {origin} breaks z-major order: the planes below z={self.z0} are final")
        if oz > self.z0:
            self._flush(oz)
        sl = (slice(0, p), slice(oy, oy + p), slice(ox, ox + p))
        self.weighted_sum[(slice(None),) + sl] += self.window * patch_data
        self.weight_sum[sl] += self.window

    def finalize(self) -> np.ndarray:
        """Weighted mean per voxel, the float32 field [c, nz, ny, nx]: call it
        once, after the last add."""
        self._flush(self.dims[2])
        return self.field
