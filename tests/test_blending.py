import numpy as np
import pytest

from voxcorr.blending import BlendAccumulator, gaussian_window, make_patch_grid
from voxcorr.volume import VolumeError


class TestPatchGrid:
    def test_single_patch(self):
        origins = make_patch_grid((128, 128, 128), 128, 64)
        assert origins == ((0, 0, 0),)

    def test_exact_tiling(self):
        origins = make_patch_grid((192, 192, 192), 128, 64)
        xs = sorted({o[0] for o in origins})
        assert xs == [0, 64]

    def test_clamped_final_origin(self):
        origins = make_patch_grid((200, 200, 200), 128, 64)
        xs = sorted({o[0] for o in origins})
        assert xs == [0, 64, 72]

    def test_full_coverage_brute_force(self):
        # oracle: union of patches covers every voxel
        for dims in [(200, 130, 129), (64, 64, 64), (37, 41, 53)]:
            origins = make_patch_grid(dims, 32, 24)
            covered = np.zeros(dims[::-1], dtype=bool)
            for x, y, z in origins:
                covered[z : z + 32, y : y + 32, x : x + 32] = True
            assert covered.all()

    def test_origins_sorted_zyx(self):
        origins = make_patch_grid((64, 64, 64), 32, 32)
        keys = [(z, y, x) for x, y, z in origins]
        assert keys == sorted(keys)

    def test_patch_too_large(self):
        with pytest.raises(VolumeError):
            make_patch_grid((16, 16, 16), 32, 8)

    def test_stride_above_patch_rejected(self):
        # x origins [0, 48, 96] would leave 32..47 and 80..95 uncovered
        with pytest.raises(VolumeError, match="stride 48 exceeds patch size 32"):
            make_patch_grid((128, 128, 128), 32, 48)

    @pytest.mark.parametrize("patch_size", [0, -1])
    def test_nonpositive_patch_rejected(self, patch_size):
        with pytest.raises(VolumeError, match=f"patch size must be >= 1, got {patch_size}"):
            make_patch_grid((16, 16, 16), patch_size, 8)


class TestGaussianWindow:
    def test_center_peak_is_one(self):
        w = gaussian_window(5)
        assert w[2, 2, 2] == 1.0

    def test_symmetry(self):
        w = gaussian_window(7)
        np.testing.assert_allclose(w, w[::-1], atol=0)
        np.testing.assert_allclose(w, w[:, ::-1], atol=0)
        np.testing.assert_allclose(w, w[:, :, ::-1], atol=0)

    def test_corner_closed_form(self):
        w = gaussian_window(5)  # sigma 5 / 4
        expected = np.exp(-3 * 2.0 ** 2 / (2 * 1.25 ** 2))
        assert w[0, 0, 0] == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("p", [1, 2, 16, 32, 128])
    def test_corner_weight_above_exp_minus_6(self, p):
        # sigma p / 4 keeps every blend weight well away from zero, with no floor
        assert gaussian_window(p).min() > np.exp(-6.0)


class TestBlendAccumulator:
    def test_constant_patches(self):
        acc = BlendAccumulator((40, 40, 40), 1, 16)
        origins = make_patch_grid((40, 40, 40), 16, 8)
        for origin in origins:
            acc.add(np.full((1, 16, 16, 16), 3.25), origin)
        np.testing.assert_allclose(acc.finalize(), 3.25, atol=1e-12)

    def test_reconstruction_identity(self):
        rng = np.random.default_rng(3)
        vol = rng.uniform(0, 1, size=(40, 36, 33))
        acc = BlendAccumulator((33, 36, 40), 1, 16)
        for x, y, z in make_patch_grid((33, 36, 40), 16, 8):
            acc.add(vol[None, z : z + 16, y : y + 16, x : x + 16], (x, y, z))
        np.testing.assert_allclose(acc.finalize()[0], vol, atol=1e-5)

    def test_single_covering_patch_exact(self):
        rng = np.random.default_rng(4)
        patch = rng.uniform(0, 1, size=(3, 16, 16, 16))
        acc = BlendAccumulator((16, 16, 16), 3, 16)
        acc.add(patch, (0, 0, 0))
        np.testing.assert_allclose(acc.finalize(), patch, atol=1e-12)

    def test_uncovered_voxels_error(self):
        acc = BlendAccumulator((32, 32, 32), 1, 16)
        acc.add(np.ones((1, 16, 16, 16)), (0, 0, 0))
        with pytest.raises(VolumeError):
            acc.finalize()

    def test_out_of_z_order_add_rejected(self):
        acc = BlendAccumulator((16, 16, 24), 1, 16)
        acc.add(np.ones((1, 16, 16, 16)), (0, 0, 0))
        acc.add(np.ones((1, 16, 16, 16)), (0, 0, 8))  # planes 0..7 are final
        with pytest.raises(VolumeError, match="breaks z-major order"):
            acc.add(np.ones((1, 16, 16, 16)), (0, 0, 0))


def whole_grid_blend(patches, dims, p):
    """Oracle: the overlap-add in float64 sums over the whole grid, divided
    once and rounded to float32."""
    nx, ny, nz = dims
    weighted = np.zeros((patches[0][0].shape[0], nz, ny, nx))
    weight = np.zeros((nz, ny, nx))
    window = gaussian_window(p)
    for data, (x, y, z) in patches:
        sl = (slice(z, z + p), slice(y, y + p), slice(x, x + p))
        weighted[(slice(None),) + sl] += window * data
        weight[sl] += window
    return (weighted / weight).astype(np.float32)


@pytest.mark.parametrize("dims, p, stride", [
    ((37, 41, 53), 16, 12),  # dims no multiple of the stride
    ((10, 9, 11), 4, 1),  # stride 1: a new band start at every plane
    ((24, 24, 24), 8, 8),  # stride = p: no overlap
    ((20, 21, 21), 8, 8),  # clamped last origins, 12 and 13
    ((30, 25, 16), 16, 8),  # one patch deep in z: a single band
])
def test_band_equals_whole_grid_oracle(dims, p, stride):
    rng = np.random.default_rng(sum(dims) + p + stride)
    patches = [(rng.standard_normal((3, p, p, p)).astype(np.float32), o)
               for o in make_patch_grid(dims, p, stride)]
    acc = BlendAccumulator(dims, 3, p)
    for data, origin in patches:
        acc.add(data, origin)
    field = acc.finalize()
    assert field.dtype == np.float32
    assert field.tobytes() == whole_grid_blend(patches, dims, p).tobytes()
