import numpy as np
import pytest
from scipy.ndimage import gaussian_filter

from voxcorr.volume import (
    DisplacementField,
    ScalarVolume,
    VolumeError,
    crop_or_pad,
    downsample2,
    invert_field,
    minmax_normalize,
    trilinear_sample,
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


class TestTrilinearSample:
    def test_lattice_point(self):
        vol = rand_volume((4, 4, 4), seed=1)
        vol.data[1, 1, 1] = 5.0
        assert trilinear_sample(vol, (1, 1, 1)) == 5.0

    def test_midpoint_average(self):
        vol = ScalarVolume(np.array([[[0.0, 10.0]]]))  # 2x1x1 in (nx, ny, nz) terms
        assert trilinear_sample(vol, (0.5, 0, 0)) == pytest.approx(5.0)

    def test_clamp_below(self):
        vol = ScalarVolume(np.array([[[0.0, 10.0]]]))
        assert trilinear_sample(vol, (-3.2, 0, 0)) == 0.0

    def test_clamp_above(self):
        vol = ScalarVolume(np.array([[[0.0, 10.0]]]))
        assert trilinear_sample(vol, (7.7, 0, 0)) == 10.0

    def test_linear_in_values(self):
        a = rand_volume((5, 6, 7), seed=2)
        b = rand_volume((5, 6, 7), seed=3)
        pt = (3.3, 2.7, 1.2)
        lhs = trilinear_sample(ScalarVolume(2.0 * a.data + 3.0 * b.data), pt)
        rhs = 2.0 * trilinear_sample(a, pt) + 3.0 * trilinear_sample(b, pt)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_rejects_nonfinite(self):
        vol = rand_volume((3, 3, 3))
        with pytest.raises(VolumeError):
            trilinear_sample(vol, (np.nan, 0, 0))


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
        from voxcorr.volume import grid_coords, sample_field

        u = smooth_field((32, 32, 32), amplitude=2.0, sigma=8.0, seed=11)
        g = invert_field(u)
        zz, yy, xx = grid_coords(u.data.shape[1:])
        u_at = sample_field(u.data, xx + g.data[0], yy + g.data[1], zz + g.data[2])
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
