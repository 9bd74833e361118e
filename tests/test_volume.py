import math
import sys
import threading
import time
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.ndimage import gaussian_filter, map_coordinates

from voxcorr import volume
from voxcorr.tpms import DeformSpec, synth_displacement
from voxcorr.volume import (
    DisplacementField,
    ScalarVolume,
    VolumeError,
    crop_or_pad,
    downsample2,
    grid_coords,
    invert_field,
    minmax_normalize,
    parallel_map,
    shift_into,
    trilinear_gather,
    warp,
    warp_array,
)


def rand_volume(shape, seed=0, lo=0.0, hi=1.0):
    rng = np.random.default_rng(seed)
    return ScalarVolume(rng.uniform(lo, hi, size=shape).astype(np.float64))


def smooth_field(shape_zyx, amplitude, sigma, seed=0):
    rng = np.random.default_rng(seed)
    u = gaussian_filter(rng.standard_normal((3, *shape_zyx)), sigma=(0, sigma, sigma, sigma))
    u *= amplitude / np.abs(u).max()
    return DisplacementField(u)


class TestContainers:
    def test_finiteness_is_left_to_vvol(self):
        # vvol_read and write_raw check each payload (test_vvol); the containers
        # do not re-check every intermediate with a whole-volume bool array
        assert np.isnan(ScalarVolume(np.full((2, 2, 2), np.nan)).data).all()
        assert np.isinf(DisplacementField(np.full((3, 2, 2, 2), np.inf)).data).all()

    @pytest.mark.parametrize("vs", [(0.0, 1.0, 1.0), (1.0, -2.0, 1.0), (1.0, 1.0, np.nan), (np.inf, 1.0, 1.0)])
    def test_voxel_size_positive_and_finite(self, vs):
        with pytest.raises(VolumeError, match="voxel_size"):
            ScalarVolume(np.zeros((2, 2, 2)), vs)
        with pytest.raises(VolumeError, match="voxel_size"):
            DisplacementField(np.zeros((3, 2, 2, 2)), vs)


def reference_gather(vol, px, py, pz, with_grad=False):
    """One-channel gather with eight fancy-index reads, the pre-channel-axis
    implementation: the oracle the flat-index gather must match bit for bit.
    It computes in result_type(vol, float32) from fractions taken in the
    points' dtype, as the dtype rule of trilinear_gather says."""
    nz, ny, nx = vol.shape
    dt = np.result_type(vol, np.float32)
    vol = vol.astype(dt, copy=False)
    px = np.asarray(px, dtype=np.result_type(px, np.float32))
    py = np.asarray(py, dtype=px.dtype)
    pz = np.asarray(pz, dtype=px.dtype)
    cx = np.clip(px, 0.0, nx - 1)
    cy = np.clip(py, 0.0, ny - 1)
    cz = np.clip(pz, 0.0, nz - 1)
    x0, y0, z0 = (np.maximum(np.floor(c).astype(np.intp), 0) for c in (cx, cy, cz))
    fx, fy, fz = ((c - i.astype(c.dtype)).astype(dt) for c, i in ((cx, x0), (cy, y0), (cz, z0)))
    x1 = np.minimum(x0 + 1, nx - 1)
    y1 = np.minimum(y0 + 1, ny - 1)
    z1 = np.minimum(z0 + 1, nz - 1)
    v000, v001, v010, v011 = vol[z0, y0, x0], vol[z0, y0, x1], vol[z0, y1, x0], vol[z0, y1, x1]
    v100, v101, v110, v111 = vol[z1, y0, x0], vol[z1, y0, x1], vol[z1, y1, x0], vol[z1, y1, x1]
    c00 = v000 + fx * (v001 - v000)
    c01 = v010 + fx * (v011 - v010)
    c10 = v100 + fx * (v101 - v100)
    c11 = v110 + fx * (v111 - v110)
    c0 = c00 + fy * (c01 - c00)
    c1 = c10 + fy * (c11 - c10)
    out = c0 + fz * (c1 - c0)
    if not with_grad:
        return out
    dx00, dx01, dx10, dx11 = v001 - v000, v011 - v010, v101 - v100, v111 - v110
    gx = (dx00 + fy * (dx01 - dx00)) * (1 - fz) + (dx10 + fy * (dx11 - dx10)) * fz
    gy = (c01 - c00) * (1 - fz) + (c11 - c10) * fz
    gz = c1 - c0
    gx = gx * ((px > 0) & (px < nx - 1))
    gy = gy * ((py > 0) & (py < ny - 1))
    gz = gz * ((pz > 0) & (pz < nz - 1))
    return out, (gx, gy, gz)


def gather_case(shape_zyx, vol_dtype, pt_dtype, channels=3, n=200, seed=0):
    """Random channels x grid volume and points reaching 2.5 voxels past every face."""
    rng = np.random.default_rng(seed)
    vol = rng.standard_normal((channels, *shape_zyx)).astype(vol_dtype)
    hi = np.array(shape_zyx[::-1], dtype=np.float64)[:, None] + 1.5
    px, py, pz = rng.uniform(-2.5, hi, size=(3, n)).astype(pt_dtype)
    return vol, px, py, pz


GATHER_SHAPES = [(5, 6, 7), (1, 4, 5), (4, 1, 5), (4, 5, 1), (2, 2, 2), (1, 1, 2), (2, 1, 1)]
FLOATS = [np.float32, np.float64]


class TestTrilinearGather:
    @pytest.mark.parametrize("shape", GATHER_SHAPES)
    @pytest.mark.parametrize("vol_dtype", FLOATS)
    @pytest.mark.parametrize("pt_dtype", FLOATS)
    @pytest.mark.parametrize("with_grad", [False, True])
    def test_matches_reference_per_channel(self, shape, vol_dtype, pt_dtype, with_grad):
        def arrays(result):  # out, then gx, gy, gz when with_grad
            return [result[0], *result[1]] if with_grad else [result]

        vol, px, py, pz = gather_case(shape, vol_dtype, pt_dtype)
        got = arrays(trilinear_gather(vol, px, py, pz, with_grad=with_grad))
        for c in range(vol.shape[0]):
            want = arrays(reference_gather(vol[c], px, py, pz, with_grad=with_grad))
            one = arrays(trilinear_gather(vol[c], px, py, pz, with_grad=with_grad))
            for g, w, o in zip(got, want, one, strict=True):
                assert g.dtype == w.dtype == o.dtype
                assert np.array_equal(g[c], w)
                assert np.array_equal(o, w)

    @pytest.mark.parametrize("vol_dtype", FLOATS)
    @pytest.mark.parametrize("pt_dtype", FLOATS)
    def test_output_has_the_volume_dtype(self, vol_dtype, pt_dtype):
        vol, px, py, pz = gather_case((5, 6, 7), vol_dtype, pt_dtype, channels=1)
        assert trilinear_gather(vol[0], px, py, pz).dtype == vol_dtype
        out, grads = trilinear_gather(vol[0], px, py, pz, with_grad=True)
        assert out.dtype == vol_dtype and all(g.dtype == vol_dtype for g in grads)

    @pytest.mark.parametrize("shape", GATHER_SHAPES)
    @pytest.mark.parametrize("vol_dtype", [np.uint8, np.float16])
    @pytest.mark.parametrize("with_grad", [False, True])
    def test_narrow_volume_matches_its_float32_copy(self, shape, vol_dtype, with_grad):
        # a volume narrower than float32 is sampled in result_type(vol, float32):
        # the bits of its float32 copy, and the oracle's values (which, as in
        # test_matches_reference_per_channel, may differ in the sign of a zero)
        _, px, py, pz = gather_case(shape, np.float32, np.float64)
        vol = np.random.default_rng(1).integers(0, 256, (3, *shape)).astype(vol_dtype)
        got = trilinear_gather(vol, px, py, pz, with_grad=with_grad)
        want = trilinear_gather(vol.astype(np.float32), px, py, pz, with_grad=with_grad)
        got, want = ([r[0], *r[1]] if with_grad else [r] for r in (got, want))
        for g, w in zip(got, want, strict=True):
            assert g.dtype == np.float32 and g.tobytes() == w.tobytes()
        for c in range(vol.shape[0]):
            ref = reference_gather(vol[c], px, py, pz, with_grad=with_grad)
            ref = [ref[0], *ref[1]] if with_grad else [ref]
            for g, r in zip(got, ref, strict=True):
                assert r.dtype == np.float32 and np.array_equal(g[c], r)

    @pytest.mark.parametrize("shape", GATHER_SHAPES)
    def test_matches_scipy_linear_nearest(self, shape):
        vol, px, py, pz = gather_case(shape, np.float64, np.float64, channels=2, seed=3)
        got = trilinear_gather(vol, px, py, pz)
        for c in range(vol.shape[0]):
            want = map_coordinates(vol[c], [pz, py, px], order=1, mode="nearest")
            np.testing.assert_allclose(got[c], want, rtol=0, atol=1e-12)

    def test_exact_at_grid_points(self):
        vol = rand_volume((4, 5, 6), seed=1).data
        zz, yy, xx = np.meshgrid(np.arange(4.0), np.arange(5.0), np.arange(6.0), indexing="ij")
        np.testing.assert_array_equal(trilinear_gather(vol, xx, yy, zz), vol)

    def test_midpoint_average(self):
        vol = np.array([[[0.0, 10.0]]])  # nx = 2, ny = nz = 1
        assert trilinear_gather(vol, np.array([0.5]), np.array([0.0]), np.array([0.0]))[0] == pytest.approx(5.0)

    @pytest.mark.parametrize("x, want", [(-3.2, 0.0), (7.7, 10.0)])
    def test_clamped_outside(self, x, want):
        vol = np.array([[[0.0, 10.0]]])
        assert trilinear_gather(vol, np.array([x]), np.array([-1.0]), np.array([2.5]))[0] == want

    def test_linear_in_volume(self):
        a = rand_volume((5, 6, 7), seed=2).data
        b = rand_volume((5, 6, 7), seed=3).data
        pts = np.array([[3.3, 0.2, 6.9], [2.7, 5.5, 0.1], [1.2, 3.9, 4.4]])
        lhs = trilinear_gather(2.0 * a + 3.0 * b, *pts)
        rhs = 2.0 * trilinear_gather(a, *pts) + 3.0 * trilinear_gather(b, *pts)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12)

    @pytest.mark.parametrize("seq", [list, tuple])
    @pytest.mark.parametrize("with_grad", [False, True])
    def test_python_sequences_match_arrays(self, seq, with_grad):
        def arrays(result):  # out, then gx, gy, gz when with_grad
            return [result[0], *result[1]] if with_grad else [result]

        vol = rand_volume((4, 5, 6), seed=5).data
        pts = [[0.5, 3.25, -1.0], [0.0, 2.5, 4.75], [1, 2, 3]]  # integer z coordinates too
        got = arrays(trilinear_gather(vol, *map(seq, pts), with_grad=with_grad))
        want = arrays(trilinear_gather(vol, *map(np.array, pts), with_grad=with_grad))
        for g, w in zip(got, want, strict=True):
            assert g.dtype == w.dtype and np.array_equal(g, w)

    def test_leading_axes_and_point_shape(self):
        vol, px, py, pz = gather_case((4, 5, 6), np.float64, np.float64, channels=6, n=24)
        pts = [p.reshape(2, 3, 4) for p in (px, py, pz)]
        out = trilinear_gather(vol.reshape(2, 3, 4, 5, 6), *pts)
        assert out.shape == (2, 3, 2, 3, 4)
        np.testing.assert_array_equal(out.reshape(6, 24), trilinear_gather(vol, px, py, pz))


class TestBlocks:
    """volume.blocks, the walk of every whole-grid pass: each element once, in
    C order, at most BLOCK at a time."""

    SHAPES = st.one_of(
        st.just(()),
        st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)).filter(lambda s: 0 in s),
        st.tuples(st.integers(1, 50)),
        st.tuples(*[st.integers(1, 9)] * 3),  # planes of 1 to 81 elements, under and over the block
        st.tuples(st.just(3), *[st.integers(1, 9)] * 3),  # a displacement field's [3, z, y, x]
    )

    @staticmethod
    def check(shape, seed):
        a = np.random.default_rng(seed).permutation(math.prod(shape)).reshape(shape)
        cuts = volume.blocks(shape)
        assert all(np.size(a[b]) <= volume.BLOCK for b in cuts)
        assert np.array_equal(np.concatenate([a[b].ravel() for b in cuts]), a.ravel())

    @settings(max_examples=200, deadline=None)
    @given(shape=SHAPES, block=st.integers(1, 40), seed=st.integers(0, 2 ** 31))
    def test_every_element_once_in_c_order(self, shape, block, seed):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(volume, "BLOCK", block)
            self.check(shape, seed)

    @pytest.mark.parametrize("shape", [(), (0, 4, 4), (40000,), (16, 64, 64), (5, 136, 136), (3, 4, 136, 136)])
    def test_default_block(self, shape):
        self.check(shape, 0)

    def test_planes_over_the_block_are_cut_into_rows(self):
        assert volume.blocks((2, 136, 136))[:3] == [(0, slice(0, 120)), (0, slice(120, 240)), (1, slice(0, 120))]


class TestPointShapes:
    """Point counts and shapes, each sampled in one pass, against the
    per-point reference."""

    @staticmethod
    def check(vol, px, py, pz, with_grad):
        got = trilinear_gather(vol, px, py, pz, with_grad=with_grad)
        got = [got[0], *got[1]] if with_grad else [got]
        for c in range(vol.shape[0]):
            want = reference_gather(vol[c], px, py, pz, with_grad=with_grad)
            want = [want[0], *want[1]] if with_grad else [want]
            for g, w in zip(got, want, strict=True):
                assert g.dtype == w.dtype and g[c].shape == np.shape(w)
                assert np.array_equal(g[c], w)

    @pytest.mark.parametrize("n", [0, 1, 6, 7, 8, 20, 21, 22])
    @pytest.mark.parametrize("with_grad", [False, True])
    def test_point_counts(self, n, with_grad):
        vol, px, py, pz = gather_case((5, 6, 7), np.float64, np.float32, n=n, seed=n)
        self.check(vol, px, py, pz, with_grad)

    @pytest.mark.parametrize("with_grad", [False, True])
    def test_zero_dimensional_points(self, with_grad):
        vol, px, py, pz = gather_case((5, 6, 7), np.float32, np.float64, n=1, seed=1)
        self.check(vol, px[0], py[0], pz[0], with_grad)
        out = trilinear_gather(vol, np.float64(px[0]), np.float64(py[0]), np.float64(pz[0]))
        assert out.shape == (3,)

    @pytest.mark.parametrize("with_grad", [False, True])
    def test_broadcast_views(self, with_grad):
        # the baseline's dense field passes one axis ramp per coordinate, broadcast to the grid
        vol, _, _, _ = gather_case((4, 5, 6), np.float64, np.float64)
        shape = (4, 3, 5)
        gx = np.linspace(-1.0, 6.5, shape[2])[None, None, :]
        gy = np.linspace(-0.5, 5.2, shape[1])[None, :, None]
        gz = np.linspace(0.3, 4.1, shape[0])[:, None, None]
        px, py, pz = (np.broadcast_to(g, shape) for g in (gx, gy, gz))
        self.check(vol, px, py, pz, with_grad)

    @pytest.mark.parametrize("with_grad", [False, True])
    def test_multi_axis_points(self, with_grad):
        vol, px, py, pz = gather_case((4, 5, 6), np.float64, np.float64, n=60, seed=2)
        self.check(vol, *(p.reshape(3, 4, 5) for p in (px, py, pz)), with_grad)
        self.check(vol, *(p.reshape(5, 3, 4)[:, ::2].T for p in (px, py, pz)), with_grad)

    def test_invert_field_matches_whole_grid_iteration(self, monkeypatch):
        monkeypatch.setattr(volume, "BLOCK", 7)

        def whole_grid(u, iterations=8):  # the fixed-point loop over the whole grid at once
            zz, yy, xx = grid_coords(u.shape[1:])
            g = -u
            for _ in range(iterations):
                g = np.stack([reference_gather(c, xx + g[0], yy + g[1], zz + g[2]) for c in u])
                np.negative(g, out=g)
            return g

        u = smooth_field((4, 5, 6), amplitude=2.0, sigma=1.5, seed=17)  # 120 voxels: 20 blocks of one 6-voxel row
        got = invert_field(u).data
        assert got.tobytes() == whole_grid(u.data).tobytes()


class TestWarp:
    @pytest.mark.parametrize("shape", [(6, 5, 4), (1, 5, 4), (6, 1, 4), (6, 5, 1), (1, 1, 3), (1, 1, 1)])
    @pytest.mark.parametrize("dtype", FLOATS)
    @pytest.mark.parametrize("with_grad", [False, True])
    def test_identity(self, shape, dtype, with_grad):
        # standard-normal values make b - a inexact, so only a fraction of
        # exactly 0 at an axis's last voxel returns that voxel's value
        for seed in range(4):
            moving = np.random.default_rng(seed).standard_normal(shape).astype(dtype)
            res = warp_array(moving, np.zeros((3, *shape), dtype), with_grad=with_grad)
            out = res[0] if with_grad else res
            assert out.dtype == dtype and out.tobytes() == moving.tobytes()
        vol = rand_volume((6, 5, 4), seed=4)
        np.testing.assert_array_equal(warp(vol, DisplacementField(np.zeros((3, 6, 5, 4)))).data, vol.data)

    def test_unit_translation_pulls_backward(self):
        data = np.zeros((10, 10, 10))
        data[5, 5, 5] = 1.0
        disp = DisplacementField(np.zeros((3, 10, 10, 10)))
        disp.data[0] += 1.0  # u = (1, 0, 0)
        out = warp(ScalarVolume(data), disp)
        assert out.data[5, 5, 4] == 1.0
        assert out.data[5, 5, 5] == 0.0

    def test_dims_mismatch(self):
        vol = rand_volume((4, 4, 4))
        disp = DisplacementField(np.zeros((3, 4, 4, 5)))
        with pytest.raises(VolumeError):
            warp(vol, disp)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        vol = rng.uniform(0, 1, size=(8, 8, 8))
        disp = rng.uniform(-0.3, 0.3, size=(3, 8, 8, 8))
        out, (gx, gy, gz) = warp_array(vol, disp, with_grad=True)
        grads = np.stack([gx, gy, gz])

        # oracle: central differences of mean(out) w.r.t. sampled disp entries
        h = 1e-5
        idx = [(c, z, y, x) for c, z, y, x in rng.integers(0, 8, size=(40, 4)) % [3, 8, 8, 8]]
        for c, z, y, x in idx:
            dp = disp.copy()
            dp[c, z, y, x] += h
            up = warp_array(vol, dp).mean()
            dp[c, z, y, x] -= 2 * h
            dn = warp_array(vol, dp).mean()
            fd = (up - dn) / (2 * h)
            an = grads[c, z, y, x] / vol.size
            assert an == pytest.approx(fd, rel=1e-3, abs=1e-9)


class TestChunkedWarp:
    """warp_array samples one block of the grid at a time; each block must
    give the bits of one trilinear_gather on the whole grid's coordinates."""

    @staticmethod
    def whole_grid(moving, disp, with_grad):
        zz, yy, xx = grid_coords(moving.shape, np.result_type(moving, disp, np.float32))
        return trilinear_gather(moving, xx + disp[0], yy + disp[1], zz + disp[2], with_grad=with_grad)

    @staticmethod
    def arrays(result, with_grad):
        return [result[0], *result[1]] if with_grad else [result]

    @pytest.mark.parametrize("moving_dtype, disp_dtype", [
        (np.float32, np.float32), (np.float64, np.float64), (np.float64, np.float32), (np.float32, np.float64),
    ])
    @pytest.mark.parametrize("with_grad", [False, True])
    @pytest.mark.parametrize("block", [7, 40, volume.BLOCK])  # 1 row, 2 planes, the whole grid per block
    def test_matches_one_gather_on_whole_grid(self, monkeypatch, moving_dtype, disp_dtype, with_grad, block):
        monkeypatch.setattr(volume, "BLOCK", block)
        rng = np.random.default_rng(21)
        moving = rng.standard_normal((9, 4, 5)).astype(moving_dtype)
        disp = rng.uniform(-3.0, 3.0, (3, 9, 4, 5)).astype(disp_dtype)  # reaches past every face
        got = self.arrays(warp_array(moving, disp, with_grad=with_grad), with_grad)
        want = self.arrays(self.whole_grid(moving, disp, with_grad), with_grad)
        for g, w in zip(got, want, strict=True):
            assert g.dtype == w.dtype and g.shape == w.shape
            assert g.tobytes() == w.tobytes()

    def test_several_chunks_at_the_default_block(self):
        rng = np.random.default_rng(22)
        moving = rng.random((23, 40, 50), dtype=np.float32)  # 8 planes per block, the last one short
        disp = rng.uniform(-2.0, 2.0, (3, 23, 40, 50)).astype(np.float32)
        assert warp_array(moving, disp).tobytes() == self.whole_grid(moving, disp, False).tobytes()

    def test_float64_volume_takes_a_float32_field_as_its_float64_copy(self):
        # phantom synthesis passes its float32 inverse field straight to the warp of a float64 scan
        rng = np.random.default_rng(23)
        moving = rng.random((6, 7, 8))
        disp = rng.uniform(-2.0, 2.0, (3, 6, 7, 8)).astype(np.float32)
        assert warp_array(moving, disp).tobytes() == warp_array(moving, disp.astype(np.float64)).tobytes()


class TestInvertFieldBits:
    """invert_field iterates on u, block by block, in u's dtype: the bits must
    be those of the same iteration on the whole grid."""

    @staticmethod
    def whole_grid(u: np.ndarray) -> np.ndarray:
        zz, yy, xx = grid_coords(u.shape[1:], dtype=u.dtype)
        g = -u
        for _ in range(volume.INVERT_ITERATIONS):
            g = trilinear_gather(u, xx + g[0], yy + g[1], zz + g[2])
            np.negative(g, out=g)
        return g

    def check(self, u: np.ndarray) -> None:
        got = invert_field(DisplacementField(u)).data
        want = self.whole_grid(u)
        assert got.dtype == u.dtype
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("block", [7, 64, volume.BLOCK])
    def test_smooth_field(self, monkeypatch, dtype, block):
        monkeypatch.setattr(volume, "BLOCK", block)
        u = smooth_field((30, 6, 7), amplitude=2.5, sigma=2.0, seed=31).data.astype(dtype)
        self.check(u)

    @pytest.mark.parametrize("shape", [(1, 9, 11), (2, 9, 11), (40, 3, 4)])
    def test_u_z_reaching_far_beyond_a_block(self, monkeypatch, shape):
        # with 7-voxel blocks an item spans at most 2 planes, and its points
        # land up to 13 planes away: past many items' planes on the 40-plane
        # grid, clamped at the faces on the grids of 1 and 2
        monkeypatch.setattr(volume, "BLOCK", 7)
        u = smooth_field(shape, amplitude=1.0, sigma=1.0, seed=35).data.astype(np.float32)
        u[2] += np.float32(12.0) * np.cos(np.arange(shape[0], dtype=np.float32) / 3.0)[:, None, None]
        self.check(u)

    @pytest.mark.parametrize("uz", [-4.75, 3.5, 40.0])
    def test_points_beyond_the_faces(self, monkeypatch, uz):
        # every point clamps at a face, exactly as in the whole grid
        monkeypatch.setattr(volume, "BLOCK", 7)
        u = smooth_field((20, 5, 6), amplitude=1.0, sigma=1.5, seed=32).data.astype(np.float32)
        u[2] += np.float32(uz)
        self.check(u)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("uz", [-2.0, 2.0, -3.0])
    def test_points_on_the_planes_max_u_z_away(self, monkeypatch, dtype, uz):
        # g_z = -u_z exactly: the points sit on whole planes max |u_z| away,
        # interior ones unclamped, as on the whole grid
        monkeypatch.setattr(volume, "BLOCK", 7)
        u = smooth_field((24, 5, 6), amplitude=1.5, sigma=1.0, seed=34).data.astype(dtype)
        u[2] = uz
        self.check(u)

    @pytest.mark.parametrize("shape", [(1, 5, 6), (2, 5, 6), (3, 1, 1), (40, 1, 2)])
    def test_thin_grids(self, monkeypatch, shape):
        monkeypatch.setattr(volume, "BLOCK", 7)
        u = smooth_field(shape, amplitude=1.5, sigma=1.0, seed=33).data.astype(np.float32)
        self.check(u)


class TestInvertField:
    def test_constant_field_negates(self):
        u = np.zeros((3, 8, 8, 8))
        u[0] += 1.25
        u[2] -= 0.5
        g = invert_field(DisplacementField(u))
        np.testing.assert_allclose(g.data[0], -1.25, atol=1e-12)
        np.testing.assert_allclose(g.data[1], 0.0, atol=1e-12)
        np.testing.assert_allclose(g.data[2], 0.5, atol=1e-12)

    def test_zero_field(self):
        g = invert_field(DisplacementField(np.zeros((3, 5, 5, 5))))
        assert np.all(g.data == 0.0)

    def test_residual_small_for_smooth_fields(self):
        # oracle: after inversion, u(x + g(x)) + g(x) should nearly vanish
        u = smooth_field((32, 32, 32), amplitude=2.0, sigma=8.0, seed=11)
        g = invert_field(u)
        zz, yy, xx = grid_coords(u.data.shape[1:])
        u_at = trilinear_gather(u.data, xx + g.data[0], yy + g.data[1], zz + g.data[2])
        residual = np.abs(u_at + g.data).max()
        assert residual <= 0.05

    @pytest.mark.parametrize("seed", [0, 1])
    def test_float32_phantom_field_residual(self, seed):
        # the synthesis field is float32 and so is its inverse; the benchmark's
        # inverse check samples u's float64 copy with scipy and bounds |g + u(y + g)|
        # by 1e-3 vox on voxels a field's reach away from the faces
        u = synth_displacement((64, 64, 64), DeformSpec(), seed).data
        g = invert_field(DisplacementField(u)).data
        assert g.dtype == np.float32
        u64, g64 = u.astype(np.float64), g.astype(np.float64)
        zz, yy, xx = grid_coords(u.shape[1:])
        coords = [zz + g64[2], yy + g64[1], xx + g64[0]]
        res = np.stack([g64[c] + map_coordinates(u64[c], coords, order=1, mode="nearest") for c in range(3)])
        m = math.ceil(np.abs(u64).max()) + 1
        assert np.sqrt((res ** 2).sum(axis=0))[m:-m, m:-m, m:-m].max() <= 1e-3

    def test_warp_roundtrip(self):
        u = smooth_field((32, 32, 32), amplitude=2.0, sigma=8.0, seed=13)
        base = gaussian_filter(np.random.default_rng(5).uniform(0, 1, (32, 32, 32)), 2.0)
        vol = ScalarVolume(base)
        fwd = warp(vol, u)
        back = warp(fwd, invert_field(u))
        interior = (slice(4, -4),) * 3
        err = np.abs(back.data[interior] - vol.data[interior]).max()
        assert err <= 0.05


class TestParallelMap:
    @pytest.fixture(params=["pool", "one_cpu"])
    def one_cpu(self, request, monkeypatch):
        """Runs a test as is and again as on a one-CPU machine, which has no pool."""
        if request.param == "one_cpu":
            monkeypatch.setattr(volume, "WORKERS", 1)
            monkeypatch.setattr(volume, "_POOL", None)

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 50])
    def test_item_order(self, one_cpu, n):
        def square(i):
            time.sleep(0.001 * (i % 3))  # later items may finish first
            return i * i

        assert parallel_map(square, range(n)) == [i * i for i in range(n)]

    def test_first_error_in_item_order(self, one_cpu):
        def fail(i):
            raise ValueError(f"item {i}")

        with pytest.raises(ValueError, match="item 0"):
            parallel_map(fail, range(5))

    @pytest.mark.skipif(volume.WORKERS < 2, reason="one CPU has no pool")
    def test_pool_thread_error_reaches_caller(self):
        caller = threading.current_thread()
        pool_took_one = threading.Event()

        def item(i):
            if threading.current_thread() is caller:  # hold this item until a pool thread takes the other
                assert pool_took_one.wait(timeout=60)
                return i
            pool_took_one.set()
            raise ValueError(f"item {i} on {threading.current_thread().name}")

        with pytest.raises(ValueError, match="on voxcorr"):
            parallel_map(item, range(2))

    def test_every_item_once_under_contention(self, monkeypatch):
        # more threads than cores, switching as often as the interpreter allows
        pool = ThreadPoolExecutor(7)
        monkeypatch.setattr(volume, "WORKERS", 8)
        monkeypatch.setattr(volume, "_POOL", pool)
        ran = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                ran.clear()
                assert parallel_map(lambda i: ran.append(i) or -i, range(100)) == [-i for i in range(100)]
                assert sorted(ran) == list(range(100))
        finally:
            sys.setswitchinterval(interval)
            pool.shutdown()

    def test_a_queued_helper_keeps_nothing_alive(self, monkeypatch):
        # the pool's one thread is busy, so the helper stays queued, is cancelled,
        # and its work item outlives the call: it must not hold fn's arrays
        pool = ThreadPoolExecutor(1)
        monkeypatch.setattr(volume, "WORKERS", 2)
        monkeypatch.setattr(volume, "_POOL", pool)
        release = threading.Event()
        blocker = pool.submit(release.wait, 60)
        try:
            a = np.arange(3.0)
            ref = weakref.ref(a)
            assert parallel_map(a.__getitem__, range(3)) == [0.0, 1.0, 2.0]  # fn holds the array itself
            del a
            assert ref() is None
        finally:
            release.set()
            assert blocker.result(timeout=60)
            pool.shutdown()

    def test_nested_maps_finish(self, one_cpu):
        got = parallel_map(lambda i: parallel_map(lambda j: 10 * i + j, range(3)), range(3))
        assert got == [[0, 1, 2], [10, 11, 12], [20, 21, 22]]


class TestDownsample2:
    def test_constant_block(self):
        out = downsample2(ScalarVolume(np.full((2, 2, 2), 4.0)))
        assert out.dims == (1, 1, 1)
        assert out.data[0, 0, 0] == 4.0
        assert out.voxel_size == (2.0, 2.0, 2.0)

    def test_mean_of_block(self):
        out = downsample2(ScalarVolume(np.arange(8, dtype=np.float64).reshape(2, 2, 2)))
        assert out.data[0, 0, 0] == pytest.approx(3.5)

    def test_odd_slices_dropped(self):
        vol = ScalarVolume(np.zeros((4, 4, 5)))  # nx=5 odd
        out = downsample2(vol)
        assert out.dims == (2, 2, 2)

    def test_preserves_mean_over_even_region(self):
        vol = rand_volume((7, 6, 5), seed=9)
        out = downsample2(vol)
        cropped = vol.data[:6, :6, :4]
        assert out.data.mean() == pytest.approx(cropped.mean(), rel=1e-12)

    def test_too_small(self):
        with pytest.raises(VolumeError):
            downsample2(ScalarVolume(np.zeros((1, 4, 4))))


class TestMinmaxNormalize:
    def test_three_levels(self):
        vol = ScalarVolume(np.array([[[2.0, 4.0, 6.0]]]))
        out = minmax_normalize(vol)
        np.testing.assert_allclose(out.data, [[[0.0, 0.5, 1.0]]])

    def test_idempotent_on_unit_range(self):
        vol = rand_volume((4, 4, 4), seed=10)
        vol.data.flat[0] = 0.0
        vol.data.flat[-1] = 1.0
        out = minmax_normalize(vol)
        np.testing.assert_allclose(out.data, vol.data, atol=1e-7)

    def test_constant_volume_errors(self):
        with pytest.raises(VolumeError):
            minmax_normalize(ScalarVolume(np.full((3, 3, 3), 2.0)))


def shift_oracle(data, target_dims, offset, fill):
    """out[x + offset] = in[x] voxel by voxel where both are on their grids, fill elsewhere."""
    tx, ty, tz = target_dims
    ox, oy, oz = offset
    out = np.full(data.shape[:-3] + (tz, ty, tx), fill, dtype=data.dtype)
    nz, ny, nx = data.shape[-3:]
    for z in range(nz):
        for y in range(ny):
            for x in range(nx):
                if 0 <= z + oz < tz and 0 <= y + oy < ty and 0 <= x + ox < tx:
                    out[..., z + oz, y + oy, x + ox] = data[..., z, y, x]
    return out


class TestShiftInto:
    CASES = {
        "shift": ((5, 4, 6), (2, -1, 3)),
        "crop": ((3, 2, 4), (-1, -1, -1)),
        "pad": ((8, 7, 9), (1, 2, 2)),
        "mixed": ((3, 7, 6), (-2, 1, 0)),
        "off_grid": ((5, 4, 6), (5, -4, 0)),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_scalar_matches_the_voxel_map(self, case):
        target, offset = self.CASES[case]
        vol = rand_volume((6, 4, 5), seed=21)
        out = shift_into(vol, target, offset, fill=-2.0)
        assert isinstance(out, ScalarVolume) and out.dims == target
        np.testing.assert_array_equal(out.data, shift_oracle(vol.data, target, offset, -2.0))

    @pytest.mark.parametrize("case", CASES)
    def test_field_matches_the_voxel_map(self, case):
        target, offset = self.CASES[case]
        data = np.random.default_rng(22).standard_normal((3, 6, 4, 5)).astype(np.float32)
        out = shift_into(DisplacementField(data, (2.0, 2.0, 2.0)), target, offset)
        assert isinstance(out, DisplacementField) and out.dims == target and out.voxel_size == (2.0, 2.0, 2.0)
        assert out.data.dtype == np.float32
        np.testing.assert_array_equal(out.data, shift_oracle(data, target, offset, 0.0))

    @settings(max_examples=40, deadline=None)
    @given(
        target=st.tuples(*[st.integers(1, 7)] * 3),
        offset=st.tuples(*[st.integers(-8, 8)] * 3),
        seed=st.integers(0, 2 ** 31),
    )
    def test_property(self, target, offset, seed):
        vol = rand_volume((4, 5, 3), seed=seed)
        out = shift_into(vol, target, offset, fill=7.0)
        np.testing.assert_array_equal(out.data, shift_oracle(vol.data, target, offset, 7.0))


class TestCropOrPad:
    def test_odd_crop_keeps_the_low_side(self):
        data = np.broadcast_to(np.arange(5.0), (5, 5, 5)).copy()  # value = x
        out = crop_or_pad(ScalarVolume(data), (4, 5, 5))
        np.testing.assert_array_equal(out.data[0, 0], [0.0, 1.0, 2.0, 3.0])

    def test_identity(self):
        vol = rand_volume((4, 4, 4), seed=12)
        out = crop_or_pad(vol, (4, 4, 4), fill=0.0)
        np.testing.assert_array_equal(out.data, vol.data)

    def test_target_dims_return_the_input(self):
        field = DisplacementField(np.zeros((3, 4, 5, 6), dtype=np.float32))
        assert crop_or_pad(field, (6, 5, 4)) is field

    @pytest.mark.parametrize("target", [(4, 4, 3), (4, 4, 5), (3, 5, 4)], ids=["crop", "pad", "both"])
    def test_crop_or_pad_returns_a_new_array(self, target):
        vol = rand_volume((4, 4, 4), seed=13)
        out = crop_or_pad(vol, target)
        assert out.dims == target and not np.shares_memory(out.data, vol.data)

    def test_center_crop(self):
        data = np.zeros((6, 6, 6))
        data[1:5, 1:5, 1:5] = 1.0
        out = crop_or_pad(ScalarVolume(data), (4, 4, 4), fill=0.0)
        assert out.data.sum() == 4 ** 3

    def test_symmetric_pad(self):
        out = crop_or_pad(ScalarVolume(np.ones((3, 3, 3))), (5, 5, 5), fill=0.0)
        assert out.dims == (5, 5, 5)
        assert out.data.sum() == 27
        assert np.all(out.data[1:4, 1:4, 1:4] == 1.0)

    def test_odd_pad_goes_high(self):
        out = crop_or_pad(ScalarVolume(np.ones((2, 2, 2))), (5, 5, 5), fill=0.0)
        assert np.all(out.data[1:3, 1:3, 1:3] == 1.0)
        assert out.data[4, 4, 4] == 0.0

    def test_field_channels_shaped_like_scalars(self):
        data = np.random.default_rng(3).standard_normal((3, 6, 5, 4)).astype(np.float32)
        out = crop_or_pad(DisplacementField(data), (5, 4, 7))
        assert isinstance(out, DisplacementField) and out.dims == (5, 4, 7)
        assert out.data.dtype == np.float32
        for c in range(3):
            np.testing.assert_array_equal(out.data[c], crop_or_pad(ScalarVolume(data[c]), (5, 4, 7)).data)
