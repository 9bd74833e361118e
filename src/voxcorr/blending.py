"""Patch tiling and Gaussian-weighted recombination of patch outputs.

Patch grids cover the whole volume: origins step by the stride (at most the
patch size) along each axis and a clamped final origin at dims - patch_size is
appended whenever the regular stepping stops short, so inference never needs
padding. Overlapping [c, p, p, p] patches blend with a Gaussian window of
sigma p / 4 (every weight above exp(-6)). The accumulator's float64 sums are
finalized once, in place, into the weighted mean.
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
    """Gaussian-weighted overlap-add of [c, p, p, p] patches into a full grid."""

    def __init__(self, dims: IVec3, channels: int, patch_size: int):
        nx, ny, nz = (int(d) for d in dims)
        self.dims = (nx, ny, nz)
        self.channels = int(channels)
        self.patch_size = int(patch_size)
        self.window = gaussian_window(patch_size)
        self.weighted_sum = np.zeros((self.channels, nz, ny, nx), dtype=np.float64)
        self.weight_sum = np.zeros((nz, ny, nx), dtype=np.float64)

    def add(self, patch_data: np.ndarray, origin: IVec3) -> None:
        """Accumulate a [c, p, p, p] patch at (x, y, z) origin."""
        p = self.patch_size
        if patch_data.shape != (self.channels, p, p, p):
            raise VolumeError(
                f"patch shape {patch_data.shape} does not match ({self.channels}, {p}, {p}, {p})"
            )
        ox, oy, oz = (int(o) for o in origin)
        nx, ny, nz = self.dims
        if not (0 <= ox <= nx - p and 0 <= oy <= ny - p and 0 <= oz <= nz - p):
            raise VolumeError(f"patch at {origin} does not fit inside dims {self.dims}")
        sl = (slice(oz, oz + p), slice(oy, oy + p), slice(ox, ox + p))
        self.weighted_sum[(slice(None),) + sl] += self.window * patch_data
        self.weight_sum[sl] += self.window

    def finalize(self) -> np.ndarray:
        """Weighted mean per voxel, [c, nz, ny, nx], divided in place into the
        weighted sum: call it once, after the last add."""
        if np.any(self.weight_sum == 0.0):
            raise VolumeError("finalize called with uncovered voxels (zero blend weight)")
        return np.divide(self.weighted_sum, self.weight_sum, out=self.weighted_sum)
