import tracemalloc

import numpy as np
import pytest
import scipy.fft
from scipy.ndimage import gaussian_filter, shift

from voxcorr.baseline import (
    DvcConfig,
    _quadratic_refine,
    build_node_grid,
    correlate_node,
    multiscale_dvc,
    next_fast_len,
)
from voxcorr.volume import ScalarVolume, VolumeError, trilinear_gather


def textured_volume(n=64, seed=0, sigma=1.5):
    rng = np.random.default_rng(seed)
    return gaussian_filter(rng.uniform(0, 1, (n, n, n)), sigma)


def rolled(data, t):
    """moving(x) = fixed(x - t) so the recovering offset equals t = (tx, ty, tz)."""
    tx, ty, tz = t
    return np.roll(np.roll(np.roll(data, tz, axis=0), ty, axis=1), tx, axis=2)


def reference_correlate_node(moving, fixed, center, cfg, halfsize=None, base=(0, 0, 0)):
    """The materialised-window kernel: every candidate window copied into one
    [offsets, w^3] matrix, scored by a GEMV and direct sums. The oracle the
    FFT and running-sum kernel must match."""
    h = cfg.window_halfsize if halfsize is None else int(halfsize)
    r = cfg.search_radius
    w = 2 * h + 1
    cx, cy, cz = (int(c) for c in center)
    nz, ny, nx = fixed.shape
    if not (h <= cx < nx - h and h <= cy < ny - h and h <= cz < nz - h):
        return np.zeros(3), 0.0
    f = fixed[cz - h : cz + h + 1, cy - h : cy + h + 1, cx - h : cx + h + 1].astype(np.float64, copy=False)
    fc = f - f.mean()
    var_f = float((fc * fc).sum())
    if var_f <= 1e-12:
        return np.zeros(3), 0.0
    bx, by, bz = (int(round(b)) for b in base)
    tx0, tx1 = max(bx - r, h - cx), min(bx + r, nx - 1 - h - cx)
    ty0, ty1 = max(by - r, h - cy), min(by + r, ny - 1 - h - cy)
    tz0, tz1 = max(bz - r, h - cz), min(bz + r, nz - 1 - h - cz)
    if tx0 > tx1 or ty0 > ty1 or tz0 > tz1:
        return np.zeros(3), 0.0
    block = moving[
        cz + tz0 - h : cz + tz1 + h + 1,
        cy + ty0 - h : cy + ty1 + h + 1,
        cx + tx0 - h : cx + tx1 + h + 1,
    ].astype(np.float64, copy=False)
    ntz, nty, ntx = tz1 - tz0 + 1, ty1 - ty0 + 1, tx1 - tx0 + 1
    s = block.strides
    wins = np.lib.stride_tricks.as_strided(
        block, (ntz, nty, ntx, w, w, w), (s[0], s[1], s[2], s[0], s[1], s[2])
    )
    mat = wins.reshape(ntz * nty * ntx, w ** 3)
    cross = mat @ fc.ravel()
    sm = mat.sum(axis=1)
    smm = np.einsum("ij,ij->i", mat, mat)
    var_m = smm - sm * sm / w ** 3
    ncc = cross / np.sqrt(var_f * np.maximum(var_m, 1e-12))
    ncc[var_m <= 1e-12] = -np.inf
    scores = ncc.reshape(ntz, nty, ntx)
    if not np.isfinite(scores).any():
        return np.zeros(3), 0.0
    pk = np.unravel_index(int(np.argmax(scores)), scores.shape)
    peak_score = float(min(scores[pk], 1.0))
    delta = np.zeros(3) if peak_score >= 1.0 - 1e-9 else _quadratic_refine(scores, pk)
    return np.array([tx0 + pk[2], ty0 + pk[1], tz0 + pk[0]], dtype=np.float64) + delta, peak_score


def oracle_pair(n=48, seed=11):
    """fixed and a moving copy shifted by a sub-voxel vector, with noise, so
    peaks stay below 1 and the parabola refinement runs; both scaled to
    [0, 1] as preprocessing leaves them."""
    fixed = textured_volume(n, seed=seed)
    fixed = (fixed - fixed.min()) / np.ptp(fixed)
    rng = np.random.default_rng(seed + 1)
    moving = shift(fixed, (0.6, -1.3, 2.2), order=3, mode="nearest")
    return moving + 0.05 * rng.standard_normal(fixed.shape), fixed


def test_next_fast_len_is_scipys():
    # the FFT grid sets the correlation's bits, so it must be scipy's real-FFT length
    assert [next_fast_len(n) for n in range(1, 4097)] == [scipy.fft.next_fast_len(n, real=True)
                                                          for n in range(1, 4097)]


class TestNodeGrid:
    def test_spec_lattice(self):
        xs, ys, zs = build_node_grid((64, 64, 64), DvcConfig())
        assert xs == [14, 30, 46]
        assert ys == [14, 30, 46]
        assert zs == [14, 30, 46]

    def test_degenerate_single_centered_node(self):
        xs, _, _ = build_node_grid((34, 64, 64), DvcConfig(node_spacing=16))
        # usable x range [14, 19] holds one node, centred
        assert xs == [16]

    def test_margin_respected(self):
        cfg = DvcConfig(node_spacing=8, window_halfsize=6, search_radius=3)
        xs, ys, zs = build_node_grid((48, 40, 52), cfg)
        margin = 9
        for axis_positions, n in ((xs, 48), (ys, 40), (zs, 52)):
            assert all(margin <= p <= n - 1 - margin for p in axis_positions)

    def test_too_small_rejected(self):
        with pytest.raises(VolumeError):
            build_node_grid((20, 64, 64), DvcConfig())


class TestCorrelateNode:
    def test_identical_volumes_zero_offset(self):
        vol = textured_volume(48, seed=1)
        off, peak = correlate_node(vol, vol, (24, 24, 24), DvcConfig())
        np.testing.assert_allclose(off, 0.0, atol=1e-9)
        assert peak == pytest.approx(1.0, abs=1e-9)

    def test_recovers_integer_translation(self):
        fixed = textured_volume(48, seed=2)
        moving = rolled(fixed, (2, -1, 3))
        off, peak = correlate_node(moving, fixed, (24, 24, 24), DvcConfig())
        assert peak == pytest.approx(1.0, abs=1e-6)
        np.testing.assert_allclose(off, [2, -1, 3], atol=0.05)

    def test_constant_window_invalid(self):
        vol = np.zeros((48, 48, 48))
        off, peak = correlate_node(vol, vol, (24, 24, 24), DvcConfig())
        assert peak == 0.0
        np.testing.assert_array_equal(off, 0.0)

    def test_affine_intensity_invariance(self):
        fixed = textured_volume(48, seed=3)
        moving = rolled(fixed, (1, 2, -2))
        cfg = DvcConfig()
        off1, _ = correlate_node(moving, fixed, (24, 24, 24), cfg)
        off2, _ = correlate_node(3.0 * moving + 0.7, fixed, (24, 24, 24), cfg)
        off3, _ = correlate_node(moving, 0.5 * fixed - 0.2, cfg=cfg, center=(24, 24, 24))
        np.testing.assert_allclose(off1, off2, atol=1e-9)
        np.testing.assert_allclose(off1, off3, atol=1e-9)

    def test_flat_neighbour_window_gives_finite_offset(self):
        # the windows beside the peak along x are flat and score -inf; the
        # parabola through them used to return nan and pass as a valid node
        rng = np.random.default_rng(0)
        moving = np.full((40, 40, 40), 0.25)
        moving[:, :, 23] = rng.random((40, 40))
        fixed = moving + 1e-3 * rng.standard_normal(moving.shape)
        off, peak = correlate_node(moving, fixed, (20, 20, 20), DvcConfig(window_halfsize=3, search_radius=2))
        assert np.isfinite(off).all()
        assert off[0] == 0.0
        assert peak > 0.99

    def test_default_node_memory(self):
        fixed = textured_volume(64, seed=8)
        moving = rolled(fixed, (1, 0, -1))
        correlate_node(moving, fixed, (32, 32, 32), DvcConfig())  # warm-up
        tracemalloc.start()
        try:
            correlate_node(moving, fixed, (32, 32, 32), DvcConfig())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


class TestMatchesReference:
    """The FFT cross term and running-sum window statistics against the
    materialised-window kernel: offsets and peaks to 1e-12, validity exactly."""

    @staticmethod
    def assert_matches(moving, fixed, center, cfg, halfsize=None, base=(0, 0, 0)):
        off, peak = correlate_node(moving, fixed, center, cfg, halfsize=halfsize, base=base)
        ref_off, ref_peak = reference_correlate_node(moving, fixed, center, cfg, halfsize=halfsize, base=base)
        np.testing.assert_allclose(off, ref_off, rtol=0, atol=1e-12)
        assert peak == pytest.approx(ref_peak, rel=0, abs=1e-12)
        assert (peak == 0.0) == (ref_peak == 0.0)
        assert (peak >= cfg.min_correlation) == (ref_peak >= cfg.min_correlation)
        return off, peak

    @pytest.mark.parametrize("h", [2, 5, 10])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_halfsizes_and_dtypes(self, h, dtype):
        moving, fixed = oracle_pair()
        _, peak = self.assert_matches(moving.astype(dtype), fixed.astype(dtype), (24, 24, 24), DvcConfig(), halfsize=h)
        assert 0.3 < peak < 1.0

    @pytest.mark.parametrize("axis", [0, 1, 2])
    @pytest.mark.parametrize("face", ["low", "high"])
    @pytest.mark.parametrize("h", [2, 5])
    def test_search_clipped_at_each_face(self, axis, face, h):
        moving, fixed = oracle_pair()
        cfg = DvcConfig(search_radius=4)
        center = [24, 24, 24]
        # two voxels of search room left on that side instead of four
        center[axis] = h + 2 if face == "low" else 48 - 3 - h
        self.assert_matches(moving, fixed, center, cfg, halfsize=h)

    @pytest.mark.parametrize("base", [(1.4, -2.6, 0.7), (-0.5, 3.49, -6.2), (12.3, 0.0, 0.0)])
    def test_non_integer_base(self, base):
        moving, fixed = oracle_pair()
        self.assert_matches(moving, fixed, (24, 24, 24), DvcConfig(search_radius=3), halfsize=5, base=base)

    def test_base_beyond_the_volume_is_unsearchable(self):
        moving, fixed = oracle_pair()
        _, peak = self.assert_matches(moving, fixed, (24, 24, 24), DvcConfig(search_radius=3), halfsize=5, base=(30.2, 0, 0))
        assert peak == 0.0

    @pytest.mark.parametrize("gain, bias", [(3.0, 0.7), (0.5, 2.0), (0.02, -1.0)])
    def test_affine_intensity_change(self, gain, bias):
        # NCC ignores a positive gain and any offset: compare with the oracle on the
        # unchanged pair, where its direct sums do not lose digits to the offset
        moving, fixed = oracle_pair()
        cfg = DvcConfig()
        ref_off, ref_peak = reference_correlate_node(moving, fixed, (24, 24, 24), cfg, halfsize=5)
        for m, f in ((gain * moving + bias, fixed), (moving, gain * fixed + bias)):
            off, peak = correlate_node(m, f, (24, 24, 24), cfg, halfsize=5)
            np.testing.assert_allclose(off, ref_off, rtol=0, atol=1e-12)
            assert peak == pytest.approx(ref_peak, rel=0, abs=1e-12)
        self.assert_matches(3.0 * moving + 0.7, fixed, (24, 24, 24), cfg, halfsize=5)

    def test_constant_fixed_window(self):
        moving, fixed = oracle_pair()
        fixed[14:35, 14:35, 14:35] = 0.4
        _, peak = self.assert_matches(moving, fixed, (24, 24, 24), DvcConfig())
        assert peak == 0.0

    def test_constant_moving_block(self):
        moving, fixed = oracle_pair()
        moving[:] = 0.4
        _, peak = self.assert_matches(moving, fixed, (24, 24, 24), DvcConfig())
        assert peak == 0.0

    def test_some_constant_moving_windows(self):
        # windows at offsets tx <= -3 lie in the flat slab and score -inf
        moving, fixed = oracle_pair()
        moving[:, :, :24] = 0.4
        _, peak = self.assert_matches(moving, fixed, (24, 24, 24), DvcConfig(), halfsize=2)
        assert peak > 0.3


class TestMultiscaleDvc:
    def test_zero_translation_zero_field(self):
        vol = ScalarVolume(textured_volume(64, seed=4))
        field, nodes = multiscale_dvc(vol, vol, DvcConfig())
        assert np.abs(field.data).max() <= 1e-9
        assert nodes.valid.all()

    def test_recovers_global_integer_translation(self):
        fixed_data = textured_volume(64, seed=5)
        moving = ScalarVolume(rolled(fixed_data, (2, -1, 3)))
        fixed = ScalarVolume(fixed_data)
        field, nodes = multiscale_dvc(moving, fixed, DvcConfig())
        # node displacements
        err = np.abs(nodes.displacements - np.array([2, -1, 3])).max()
        assert err <= 0.25
        # dense field inside the lattice hull
        hull = (slice(14, 47),) * 3
        for c, want in enumerate((2, -1, 3)):
            assert np.abs(field.data[c][hull] - want).max() <= 0.25

    def test_dense_field_matches_nodes_exactly(self):
        fixed_data = textured_volume(64, seed=6)
        moving = ScalarVolume(rolled(fixed_data, (1, 0, -2)))
        field, nodes = multiscale_dvc(moving, ScalarVolume(fixed_data), DvcConfig())
        for (x, y, z), d in zip(nodes.positions, nodes.displacements):
            np.testing.assert_allclose(field.data[:, z, y, x], d, atol=1e-6)

    def test_dense_field_is_one_gather_on_the_whole_grid(self):
        # z-chunks of whole planes, each cast to float32, against one gather on
        # the whole grid's coordinates cast afterwards
        cfg = DvcConfig(node_spacing=8, window_halfsize=5, search_radius=3)
        fixed_data = textured_volume(48, seed=7)[:, :40, :44]  # 9 planes per chunk, the last 3
        moving = ScalarVolume(rolled(fixed_data, (1, -1, 2)))
        field, nodes = multiscale_dvc(moving, ScalarVolume(fixed_data), cfg)
        nnx, nny, nnz = nodes.lattice_dims
        lattice = np.moveaxis(nodes.displacements.reshape(nnz, nny, nnx, 3), -1, 0)
        axes = [(np.arange(n) - p[0]) / (p[1] - p[0]) for n, p in zip(moving.dims, build_node_grid(moving.dims, cfg))]
        zz, yy, xx = np.meshgrid(axes[2], axes[1], axes[0], indexing="ij")
        want = trilinear_gather(lattice, xx, yy, zz).astype(np.float32)
        assert field.data.dtype == np.float32 and field.data.tobytes() == want.tobytes()

    @pytest.mark.parametrize("bad", [0.0, -0.5, 1.5, float("nan")])
    def test_min_correlation_must_be_in_unit_interval(self, bad):
        # invalid nodes report a peak of 0.0, so min_correlation <= 0 would accept them
        with pytest.raises(VolumeError, match="min_correlation"):
            DvcConfig(min_correlation=bad)

    def test_all_invalid_rejected(self):
        flat = ScalarVolume(np.zeros((64, 64, 64)))
        with pytest.raises(VolumeError):
            multiscale_dvc(flat, flat, DvcConfig())
