import numpy as np
import pytest
from scipy.ndimage import gaussian_filter, map_coordinates

from voxcorr.volume import (
    DisplacementField,
    ScalarVolume,
    VolumeError,
    crop_or_pad,
    downsample2,
    grid_coords,
    invert_field,
    minmax_normalize,
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


class TestScalarVolume:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_nonfinite(self, bad):
        data = np.random.default_rng(0).uniform(size=(16, 16, 16))
        data[3, 4, 5] = bad  # one such voxel used to give an Otsu threshold of nan
        with pytest.raises(VolumeError, match="non-finite"):
            ScalarVolume(data)


class TestDisplacementField:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_nonfinite(self, bad):
        # fields are where sample points enter the gather from outside
        data = np.zeros((3, 4, 4, 4))
        data[0, 1, 2, 3] = bad
        with pytest.raises(VolumeError, match="non-finite"):
            DisplacementField(data)


def reference_gather(vol, px, py, pz, with_grad=False):
    """One-channel gather with eight fancy-index reads, the pre-channel-axis
    implementation: the oracle the flat-index gather must match bit for bit."""
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
    x0, y0, z0 = np.maximum(x0, 0), np.maximum(y0, 0), np.maximum(z0, 0)
    fx, fy, fz = cx - x0, cy - y0, cz - z0
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

    def test_float32_volume_and_points_give_float64(self):
        # the in-place lerp must not keep the float32 corners' dtype
        vol, px, py, pz = gather_case((5, 6, 7), np.float32, np.float32, channels=1)
        assert trilinear_gather(vol[0], px, py, pz).dtype == np.float64
        out, grads = trilinear_gather(vol[0], px, py, pz, with_grad=True)
        assert out.dtype == np.float64 and all(g.dtype == np.float64 for g in grads)

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

    def test_leading_axes_and_point_shape(self):
        vol, px, py, pz = gather_case((4, 5, 6), np.float64, np.float64, channels=6, n=24)
        pts = [p.reshape(2, 3, 4) for p in (px, py, pz)]
        out = trilinear_gather(vol.reshape(2, 3, 4, 5, 6), *pts)
        assert out.shape == (2, 3, 2, 3, 4)
        np.testing.assert_array_equal(out.reshape(6, 24), trilinear_gather(vol, px, py, pz))


class TestWarp:
    def test_identity(self):
        vol = rand_volume((6, 5, 4), seed=4)
        disp = DisplacementField(np.zeros((3, 6, 5, 4)))
        out = warp(vol, disp)
        np.testing.assert_array_equal(out.data, vol.data)

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

    def test_warp_roundtrip(self):
        u = smooth_field((32, 32, 32), amplitude=2.0, sigma=8.0, seed=13)
        base = gaussian_filter(np.random.default_rng(5).uniform(0, 1, (32, 32, 32)), 2.0)
        vol = ScalarVolume(base)
        fwd = warp(vol, u)
        back = warp(fwd, invert_field(u))
        interior = (slice(4, -4),) * 3
        err = np.abs(back.data[interior] - vol.data[interior]).max()
        assert err <= 0.05


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


class TestCropOrPad:
    def test_identity(self):
        vol = rand_volume((4, 4, 4), seed=12)
        out = crop_or_pad(vol, (4, 4, 4), fill=0.0)
        np.testing.assert_array_equal(out.data, vol.data)

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
