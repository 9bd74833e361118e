"""Sliding-window registration of full volumes.

Patches on a clamped stride grid are pushed through the network one at a
time; their displacement fields are recombined with one Gaussian blend window
into a border-free full-volume field, with no padding. The moved volume is the
scan warped by that field, as for the baseline, so a report's Dice and BDM
describe the same field as its endpoint error.

Each patch's forward allocates its buffers anew and frees them before the
next patch; the blend keeps float64 sums only for the z-planes that later
patches still reach. The malloc policy that cli.main sets
(cli.apply_malloc_policy) keeps the freed memory in the process's heap, so
later patches reuse it without faulting pages back in. The outputs do not
depend on the policy; only the time does.
"""
from __future__ import annotations

import numpy as np

from .blending import BlendAccumulator, make_patch_grid
from .model import ModelConfig, model_forward
from .volume import DisplacementField, ScalarVolume, VolumeError, warp


def sliding_register(
    params: dict,
    cfg: ModelConfig,
    moving: ScalarVolume,
    fixed: ScalarVolume,
    stride: int | None = None,
) -> tuple[ScalarVolume, DisplacementField]:
    """Register moving onto fixed; returns (warp(moving, field), field).

    Patches have the model's patch size; the default stride is half of it.
    """
    if moving.dims != fixed.dims:
        raise VolumeError(f"dims mismatch: {moving.dims} vs {fixed.dims}")
    p = int(cfg.patch_size)
    s = int(max(1, p // 2) if stride is None else stride)
    origins = make_patch_grid(moving.dims, p, s)
    acc = BlendAccumulator(moving.dims, 3, p)
    mdata = moving.data.astype(np.float32, copy=False)
    fdata = fixed.data.astype(np.float32, copy=False)
    for x, y, z in origins:
        sl = (slice(z, z + p), slice(y, y + p), slice(x, x + p))
        disp, _, _ = model_forward(params, cfg, mdata[sl], fdata[sl], want_tape=False)
        acc.add(disp, (x, y, z))
    disp = DisplacementField(acc.finalize(), moving.voxel_size)
    del acc  # frees the float64 band before the warp allocates
    return warp(moving, disp), disp
