"""Sliding-window registration of full volumes.

Patches on a clamped stride grid are pushed through the network one at a
time; the moved patch and the displacement patch are recombined with one
shared Gaussian blend window, giving border-free full-volume outputs with no
padding.
"""
from __future__ import annotations

import numpy as np

from .blending import BlendAccumulator, make_patch_grid
from .model import ModelConfig, model_forward
from .volume import DisplacementField, ScalarVolume, VolumeError


def sliding_register(
    params: dict,
    cfg: ModelConfig,
    moving: ScalarVolume,
    fixed: ScalarVolume,
    patch_size: int | None = None,
    stride: int | None = None,
    sigma: float | None = None,
) -> tuple[ScalarVolume, DisplacementField]:
    """Register moving onto fixed; returns (moved volume, displacement field).

    Defaults: patch_size from the model config, stride = patch_size // 2,
    sigma = patch_size / 4.
    """
    if moving.dims != fixed.dims:
        raise VolumeError(f"dims mismatch: {moving.dims} vs {fixed.dims}")
    p = int(cfg.patch_size if patch_size is None else patch_size)
    s = int(max(1, p // 2) if stride is None else stride)
    grid = make_patch_grid(moving.dims, p, s)
    acc_moved = BlendAccumulator(moving.dims, 1, p, sigma)
    acc_disp = BlendAccumulator(moving.dims, 3, p, sigma)
    mdata = moving.data.astype(np.float32, copy=False)
    fdata = fixed.data.astype(np.float32, copy=False)
    for x, y, z in grid.origins:
        sl = (slice(z, z + p), slice(y, y + p), slice(x, x + p))
        disp, moved, _ = model_forward(params, cfg, mdata[sl], fdata[sl], want_tape=False)
        acc_moved.add(moved, (x, y, z))
        acc_disp.add(disp, (x, y, z))
    out_moved = ScalarVolume(acc_moved.finalize().astype(np.float32), moving.voxel_size)
    out_disp = DisplacementField(acc_disp.finalize().astype(np.float32), moving.voxel_size)
    return out_moved, out_disp
