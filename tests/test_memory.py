"""tracemalloc budgets of the whole-volume stages' kernels at 64^3.

Each budget is the traced peak of one call, above what was traced before it,
in bytes per voxel of the 64^3 grid, about 20% over the value measured when
it was set, so a stray full-volume float64 copy (8 B/voxel) fails it. The
pool is switched off: each thread adds its own block temporaries, so the
peak would depend on the number of CPUs. Measured with numpy 2.4 and scipy
1.17 on Python 3.11.
"""
import tracemalloc

import numpy as np
import pytest

from voxcorr import volume
from voxcorr.baseline import DvcConfig, multiscale_dvc
from voxcorr.inference import sliding_register
from voxcorr.metrics import endpoint_error
from voxcorr.model import ModelConfig, init_params
from voxcorr.tpms import DeformSpec, gyroid_field, synth_displacement
from voxcorr.volume import BinaryVolume, ScalarVolume, invert_field, trilinear_gather, warp_array

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
    # measured 33.3: its float32 output, one item's float64 slab and one block's temporaries
    assert bytes_per_voxel(invert_field, field) <= 40


def test_warp_array(field):
    # measured 9.5: the float32 output and one chunk's coordinates
    moving = np.random.default_rng(0).random((N, N, N), dtype=np.float32)
    assert bytes_per_voxel(warp_array, moving, field.data) <= 11


def test_synth_displacement():
    # measured 39.0: the float64 noise, smoothed in place, and the float32 field
    assert bytes_per_voxel(synth_displacement, (N, N, N), DeformSpec(), 0) <= 46


def test_endpoint_error(field):
    # measured 16.3: the float64 squared norm and one channel's difference
    gt = synth_displacement((N, N, N), DeformSpec(), 1)
    mask = BinaryVolume(np.random.default_rng(1).random((N, N, N)) > 0.5)
    assert bytes_per_voxel(endpoint_error, field, gt, mask) <= 20


@pytest.fixture(scope="module")
def pair(field):
    fixed = gyroid_field((N, N, N), 80.0, 2.5)
    return ScalarVolume(warp_array(fixed.data, field.data).astype(np.float32)), fixed


def test_multiscale_dvc(pair):
    # measured 27.2: the float64 copy each volume's coarse level is averaged
    # from, the coarse levels and the float32 dense field
    assert bytes_per_voxel(multiscale_dvc, *pair, DvcConfig()) <= 33


def test_sliding_register(pair):
    # measured 47.4: the float64 blend sums, then the float32 field and the
    # warp. A tiny model, so the patch forwards cost little; random head, so
    # the warp does not see a zero field
    cfg = ModelConfig(enc_features=(2, 2), dec_features=(2, 2, 2), patch_size=16)
    rng = np.random.default_rng(3)
    params = init_params(cfg, rng)
    params["head.w"] = 0.02 * rng.standard_normal(params["head.w"].shape).astype(np.float32)
    assert bytes_per_voxel(sliding_register, params, cfg, *pair) <= 54


def test_gather_on_broadcast_views():
    # the baseline's coordinate ramps, broadcast to the grid: copied block by
    # block, not flattened whole. Measured 37.0: the 3-channel float64 output
    # and one block's temporaries
    g = np.arange(N) / 16.0
    lattice = np.random.default_rng(2).random((3, 5, 5, 5))
    pts = (np.broadcast_to(g, (N, N, N)), np.broadcast_to(g[:, None], (N, N, N)),
           np.broadcast_to(g[:, None, None], (N, N, N)))
    assert bytes_per_voxel(trilinear_gather, lattice, *pts) <= 44
