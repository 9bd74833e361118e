"""tracemalloc budgets of the whole-volume stages' kernels at 64^3, and of
one patch-32 training step.

Each budget is the traced peak of one call, above what was traced before it,
in bytes per voxel of the 64^3 grid (of the 32^3 patch for the training
step), about 20% over the value measured when it was set, so a stray
full-volume float64 copy (8 B/voxel) fails it. The pool is switched off:
each thread adds its own block temporaries, so the peak would depend on the
number of CPUs. Measured with numpy 2.4 and scipy 1.17 on Python 3.11.
"""
import json
import tracemalloc

import numpy as np
import pytest

from voxcorr import volume
from voxcorr.baseline import DvcConfig, multiscale_dvc
from voxcorr.figures import export_displacement_magnitude
from voxcorr.inference import sliding_register
from voxcorr.metrics import endpoint_error, evaluate_pair
from voxcorr.losses import total_loss
from voxcorr.model import ModelConfig, init_params, model_backward, model_forward
from voxcorr.preprocess import build_dataset
from voxcorr.tpms import DegradeSpec, DeformSpec, TpmsSpec, gyroid_field, synth_displacement, synthesize_sample
from voxcorr.volume import BinaryVolume, ScalarVolume, invert_field, warp_array
from voxcorr.vvol import vvol_write

N = 64
VOXELS = N ** 3


@pytest.fixture(autouse=True)
def one_thread(monkeypatch):
    monkeypatch.setattr(volume, "WORKERS", 1)
    monkeypatch.setattr(volume, "_POOL", None)


def bytes_per_voxel(fn, *args) -> float:
    """Traced peak of fn(*args) above the memory traced before the call, per
    voxel; after one untraced call, so that first-use caches do not count."""
    fn(*args)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - before) / VOXELS


@pytest.fixture(scope="module")
def field():
    return synth_displacement((N, N, N), DeformSpec(), 0)


def test_invert_field(field):
    # measured 26.8: its float32 output and one block's temporaries (34.8
    # while each item sampled a float64 slab of u)
    assert bytes_per_voxel(invert_field, field) <= 32


def test_warp_array(field):
    # measured 9.5: the float32 output and one chunk's coordinates
    moving = np.random.default_rng(0).random((N, N, N), dtype=np.float32)
    assert bytes_per_voxel(warp_array, moving, field.data) <= 11


def test_synth_displacement():
    # measured 28.0: the three float64 noise channels, smoothed in place, and
    # the first channel's float32 copy (36.0 while the float64 noise was held
    # beside the whole float32 field)
    assert bytes_per_voxel(synth_displacement, (N, N, N), DeformSpec(), 0) <= 34


def test_synthesize_sample():
    # measured 44.8, set by invert_field: the ground-truth and inverse fields,
    # the float32 scan, the masks and one block's temporaries (56.8 with the
    # float64 scan and its float64 warp)
    spec = TpmsSpec(part_extent=N * 0.08, voxel_size=80.0, band_halfwidth=0.69)
    assert bytes_per_voxel(synthesize_sample, spec, 0.0, DeformSpec(), DegradeSpec(), 0) <= 54


def test_endpoint_error(field):
    # measured 5.5: the float64 errors of the masked voxels (half the grid
    # here) and one chunk's squared norm
    gt = synth_displacement((N, N, N), DeformSpec(), 1)
    mask = BinaryVolume(np.random.default_rng(1).random((N, N, N)) > 0.5)
    assert bytes_per_voxel(endpoint_error, field, gt, mask) <= 7


def test_evaluate_pair(field):
    # measured 5.5: endpoint error's float64 errors and chunk, then the two
    # int8 BDM maps (7.5 while the maps were made first and held beside EPE)
    gt = synth_displacement((N, N, N), DeformSpec(), 1)
    cad, xct, moved = (BinaryVolume(m) for m in np.random.default_rng(7).random((3, N, N, N)) > 0.5)
    assert bytes_per_voxel(evaluate_pair, cad, xct, moved, field, gt) <= 6.5


@pytest.fixture(scope="module")
def pair(field):
    fixed = gyroid_field((N, N, N), 80.0, 2.5)
    return ScalarVolume(warp_array(fixed.data, field.data).astype(np.float32)), fixed


def test_multiscale_dvc(pair):
    # measured 27.2: the float64 copy each volume's coarse level is averaged
    # from, the coarse levels and the float32 dense field
    assert bytes_per_voxel(multiscale_dvc, *pair, DvcConfig()) <= 33


def test_sliding_register(pair):
    # measured 21.6: the float32 field, a patch-deep band of float64 blend
    # sums, then the warp. A tiny model, so the patch forwards cost little;
    # random head, so the warp does not see a zero field
    cfg = ModelConfig(enc_features=(2, 2), dec_features=(2, 2, 2), patch_size=16)
    rng = np.random.default_rng(3)
    params = init_params(cfg, rng)
    params["head.w"] = 0.02 * rng.standard_normal(params["head.w"].shape).astype(np.float32)
    assert bytes_per_voxel(sliding_register, params, cfg, *pair) <= 26


def test_model_forward():
    # one no-tape forward of the whole grid at the default widths. Measured
    # 330.5: a block's input and output, the skips still ahead, and one slab
    # range's buffers; no decoder block makes its [8*cout, ...] parity tensor
    cfg = ModelConfig(patch_size=32)
    rng = np.random.default_rng(4)
    params = init_params(cfg, rng)
    moving, fixed = rng.random((2, N, N, N), dtype=np.float32)
    assert bytes_per_voxel(model_forward, params, cfg, moving, fixed, False) <= 396


def _patch_step():
    """A patch-32 model at the default widths, with a small random head, and
    one patch pair; per patch voxel, the budgets below are scaled to it."""
    cfg = ModelConfig(patch_size=32)
    rng = np.random.default_rng(6)
    params = init_params(cfg, rng)
    params["head.w"] = 0.01 * rng.standard_normal(params["head.w"].shape).astype(np.float32)
    moving, fixed = rng.random((2, 32, 32, 32), dtype=np.float32)
    return cfg, params, moving, fixed


def test_total_loss():
    # one patch-32 loss, per patch voxel. Measured 108.0: the float64 window
    # sums of the NCC (180.1 while every intermediate lived to the end, and the
    # smoothness term's three axis differences at once)
    cfg, params, moving, fixed = _patch_step()
    disp, moved, _ = model_forward(params, cfg, moving, fixed)
    assert bytes_per_voxel(total_loss, moved, fixed, disp, 0.05, 9) * VOXELS / 32 ** 3 <= 130


def test_training_step():
    # one patch-32 forward, loss and backward at the default widths, per patch
    # voxel. Measured 728.5: the tape, and in the backward one gradient besides
    # the block's own; the head's, dec5's and dec4's inputs are freed before
    # their input-gradient convs (808 while they were held)
    cfg, params, moving, fixed = _patch_step()

    def step():
        disp, moved, tape = model_forward(params, cfg, moving, fixed)
        _, d_moved, d_disp = total_loss(moved, fixed, disp, 0.05, 9)
        model_backward(tape, d_moved, d_disp)

    assert bytes_per_voxel(step) * VOXELS / 32 ** 3 <= 845


@pytest.fixture(scope="module")
def raw_dir(tmp_path_factory):
    """raw/s0/ holding one phantom on the grid, with its ground-truth field."""
    spec = TpmsSpec(part_extent=N * 0.08, voxel_size=80.0, band_halfwidth=0.69)
    cad, xct, gt = synthesize_sample(spec, 0.0, DeformSpec(), DegradeSpec(), 0)
    raw = tmp_path_factory.mktemp("raw")
    d = raw / "s0"
    d.mkdir()
    vvol_write(d / "cad.vvol", ScalarVolume(cad.mask.astype(np.float32), cad.voxel_size))
    vvol_write(d / "xct.vvol", xct)
    vvol_write(d / "gt_disp.vvol", gt)
    (d / "sample.json").write_text(json.dumps({"id": "s0", "c_param": 0.0}))
    return raw


def test_build_dataset(raw_dir, tmp_path):
    # measured 32.0: the volumes of the cleaning and alignment; the ground-truth
    # field already has the target dims, so it is written as read, not copied
    assert bytes_per_voxel(build_dataset, raw_dir, tmp_path / "manifest.json") <= 38


def test_export_displacement_magnitude(field, tmp_path):
    # measured 1.5: one chunk's squared magnitude, and the three slices'
    mask = BinaryVolume(np.random.default_rng(5).random((N, N, N)) > 0.5)
    assert bytes_per_voxel(export_displacement_magnitude, field, mask, tmp_path) <= 2
