import json
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from voxcorr import preprocess, volume
from voxcorr.preprocess import (
    CROSS6,
    CleanSpec,
    DatasetManifest,
    SampleEntry,
    _bin_indices,
    build_dataset,
    clean_xct,
    coarse_align,
    fill_enclosed_voids,
    largest_component,
    morph_op,
    otsu_threshold,
)
from voxcorr.jsonable import write_json
from voxcorr.volume import BinaryVolume, ScalarVolume, VolumeError, shift_into
from voxcorr.vvol import vvol_read, vvol_write


def otsu_oracle(values, bins=256):
    """Exhaustive search over bin edges maximizing between-class variance."""
    v = np.asarray(values, dtype=np.float64).ravel()
    edges = np.linspace(v.min(), v.max(), bins + 1)
    best_t, best_var = None, -np.inf
    for i in range(1, bins):
        t = edges[i]
        lo = v[v <= t]
        hi = v[v > t]
        if lo.size == 0 or hi.size == 0:
            continue
        w0, w1 = lo.size, hi.size
        var = w0 * w1 * (lo.mean() - hi.mean()) ** 2
        if var > best_var:
            best_var, best_t = var, t
    return best_t


def flood_components(mask, connectivity):
    """BFS flood-fill labelling; oracle for connected component analysis."""
    if connectivity == 6:
        offs = [(0, 0, 1), (0, 0, -1), (0, 1, 0), (0, -1, 0), (1, 0, 0), (-1, 0, 0)]
    else:
        offs = [
            (dz, dy, dx)
            for dz in (-1, 0, 1)
            for dy in (-1, 0, 1)
            for dx in (-1, 0, 1)
            if (dz, dy, dx) != (0, 0, 0)
        ]
    labels = np.zeros(mask.shape, dtype=int)
    nz, ny, nx = mask.shape
    cur = 0
    for z0, y0, x0 in zip(*np.nonzero(mask)):
        if labels[z0, y0, x0]:
            continue
        cur += 1
        q = deque([(z0, y0, x0)])
        labels[z0, y0, x0] = cur
        while q:
            z, y, x = q.popleft()
            for dz, dy, dx in offs:
                zz, yy, xx = z + dz, y + dy, x + dx
                if 0 <= zz < nz and 0 <= yy < ny and 0 <= xx < nx:
                    if mask[zz, yy, xx] and not labels[zz, yy, xx]:
                        labels[zz, yy, xx] = cur
                        q.append((zz, yy, xx))
    return labels, cur


class TestOtsu:
    def test_perfect_bimodal(self):
        data = np.concatenate([np.zeros(500), np.ones(500)]).reshape(10, 10, 10)
        thr, b = otsu_threshold(ScalarVolume(data))
        assert 0 < thr < 1
        assert np.count_nonzero(b.mask) == 500

    def test_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            data = rng.integers(0, 256, size=(8, 8, 8)).astype(np.float64)
            if data.max() == data.min():
                continue
            thr, _ = otsu_threshold(ScalarVolume(data))
            assert thr == pytest.approx(otsu_oracle(data), abs=0)

    def test_inversion_swaps_counts(self):
        rng = np.random.default_rng(1)
        data = rng.normal(size=(9, 9, 9)) + 3.0 * (rng.random((9, 9, 9)) > 0.6)
        thr, b = otsu_threshold(ScalarVolume(data))
        thr2, b2 = otsu_threshold(ScalarVolume(data.max() - data))
        assert np.count_nonzero(b2.mask) == b.mask.size - np.count_nonzero(b.mask)

    def test_constant_volume_rejected(self):
        with pytest.raises(VolumeError):
            otsu_threshold(ScalarVolume(np.ones((4, 4, 4))))


class TestBinIndices:
    """The arithmetic bins of otsu_threshold against searchsorted, on values
    placed where a computed bin could be off."""

    @staticmethod
    def check(values, bins):
        v = np.asarray(values, dtype=np.float64)  # otsu_threshold bins float64 values
        edges = np.linspace(v.min(), v.max(), bins + 1)
        want = np.clip(np.searchsorted(edges, v, side="left") - 1, 0, bins - 1)
        assert np.array_equal(_bin_indices(v, edges), want)

    @staticmethod
    def around(points, dtype=np.float64):
        """Every point and its nearest neighbours in dtype on both sides."""
        p = np.asarray(points, dtype=dtype)
        return np.concatenate([np.nextafter(p, -np.inf), p, np.nextafter(p, np.inf)])

    @pytest.mark.parametrize("bins", [2, 3, 256])
    @pytest.mark.parametrize("lo, hi", [(0.0, 1.0), (-3.7, 12.9), (0.1, 0.7), (1e-3, 1e5)])
    def test_on_and_beside_every_edge(self, lo, hi, bins):
        edges = np.linspace(lo, hi, bins + 1)
        inner = self.around(edges)
        rng = np.random.default_rng(bins)
        self.check(np.concatenate([[lo, hi], inner[(inner >= lo) & (inner <= hi)], rng.uniform(lo, hi, 500)]), bins)

    @pytest.mark.parametrize("bins", [2, 3, 256])
    def test_float32_values(self, bins):
        rng = np.random.default_rng(7)
        lo, hi = np.float32(0.05), np.float32(0.93)
        edges32 = np.linspace(lo, hi, bins + 1).astype(np.float32)  # edges rounded to float32 values
        v = np.concatenate([[lo, hi], self.around(edges32, np.float32), rng.uniform(lo, hi, 2000).astype(np.float32)])
        self.check(v[(v >= lo) & (v <= hi)], bins)

    @pytest.mark.parametrize("bins", [2, 3, 256])
    @pytest.mark.parametrize("base, ulps", [(1.0, 4), (1.0, 1), (-2.5, 7), (1e-300, 3)])
    def test_range_of_a_few_ulps(self, base, ulps, bins):
        v = [base]
        for _ in range(ulps):
            v.append(np.nextafter(v[-1], np.inf))
        self.check(np.array(v * 3), bins)

    @pytest.mark.parametrize("block", [1, 7, 500])
    def test_blocks_of_values(self, monkeypatch, block):
        # values binned BLOCK at a time, some blocks with look-ups and some without
        monkeypatch.setattr(volume, "BLOCK", block)
        edges = np.linspace(-1.0, 2.0, 257)
        v = np.concatenate([self.around(edges)[1:-1], np.random.default_rng(9).uniform(-1.0, 2.0, 1500)])
        self.check(v, 256)


class TestMorphology:
    def test_cross6_is_scipys_face_structure(self):
        assert CROSS6.dtype == bool and np.array_equal(CROSS6, ndimage.generate_binary_structure(3, 1))

    def test_erode_cube_to_center(self):
        m = np.zeros((5, 5, 5), bool)
        m[1:4, 1:4, 1:4] = True
        out = morph_op(BinaryVolume(m), "erode", 1, connectivity=6)
        assert np.count_nonzero(out.mask) == 1
        assert out.mask[2, 2, 2]

    def test_open_idempotent(self):
        rng = np.random.default_rng(3)
        m = rng.random((12, 12, 12)) > 0.45
        once = morph_op(BinaryVolume(m), "open", 1, connectivity=6)
        twice = morph_op(once, "open", 1, connectivity=6)
        np.testing.assert_array_equal(once.mask, twice.mask)

    def test_opening_within_the_mask(self):
        rng = np.random.default_rng(4)
        for conn in (6, 26):
            m = BinaryVolume(rng.random((10, 10, 10)) > 0.5)
            opened = morph_op(m, "open", 1, connectivity=conn)
            assert np.all(opened.mask <= m.mask)

    def test_unknown_op_rejected(self):
        with pytest.raises(VolumeError, match="unknown morphology op"):
            morph_op(BinaryVolume(np.ones((4, 4, 4), bool)), "close", 1)

    def test_radius_zero_identity(self):
        m = BinaryVolume(np.random.default_rng(5).random((6, 6, 6)) > 0.5)
        out = morph_op(m, "erode", 0)
        np.testing.assert_array_equal(out.mask, m.mask)

    def test_chebyshev_vs_manhattan_ball(self):
        # a single voxel dilated by r=1 gives 7 voxels (cross) or 27 (cube)
        m = np.zeros((5, 5, 5), bool)
        m[2, 2, 2] = True
        assert np.count_nonzero(morph_op(BinaryVolume(m), "dilate", 1, connectivity=6).mask) == 7
        assert np.count_nonzero(morph_op(BinaryVolume(m), "dilate", 1, connectivity=26).mask) == 27


class TestLargestComponent:
    def test_keeps_bigger_blob(self):
        m = np.zeros((10, 10, 10), bool)
        m[1:3, 1:3, 1:3] = True  # 8 voxels... make it 10
        m[1, 1, 4] = m[1, 1, 5] = True
        m[7, 7, 7] = m[7, 7, 8] = m[7, 8, 7] = True
        out = largest_component(BinaryVolume(m), connectivity=6)
        assert np.count_nonzero(out.mask) == 8

    def test_single_component_unchanged(self):
        m = np.zeros((6, 6, 6), bool)
        m[2:5, 2:5, 2:5] = True
        out = largest_component(BinaryVolume(m), connectivity=6)
        np.testing.assert_array_equal(out.mask, m)

    def test_diagonal_connectivity_difference(self):
        m = np.zeros((4, 4, 4), bool)
        m[0, 0, 0] = True
        m[1, 1, 1] = True
        _, n6 = flood_components(m, 6)
        _, n26 = flood_components(m, 26)
        assert (n6, n26) == (2, 1)
        out26 = largest_component(BinaryVolume(m), connectivity=26)
        assert np.count_nonzero(out26.mask) == 2  # one diagonal component keeps both voxels

    def test_matches_flood_fill_oracle(self):
        rng = np.random.default_rng(7)
        for conn in (6, 26):
            for _ in range(5):
                m = rng.random((8, 8, 8)) > 0.7
                if not m.any():
                    continue
                labels, n = flood_components(m, conn)
                sizes = np.bincount(labels.ravel())
                sizes[0] = 0
                expected = sizes.max()
                out = largest_component(BinaryVolume(m), connectivity=conn)
                assert np.count_nonzero(out.mask) == expected

    def test_empty_mask_rejected(self):
        with pytest.raises(VolumeError):
            largest_component(BinaryVolume(np.zeros((3, 3, 3), bool)))


class TestFillEnclosedVoids:
    def test_sealed_cavity_filled(self):
        m = np.zeros((5, 5, 5), bool)
        m[1:4, 1:4, 1:4] = True
        m[2, 2, 2] = False
        out = fill_enclosed_voids(BinaryVolume(m))
        assert out.mask[2, 2, 2]
        assert np.count_nonzero(out.mask) == 27

    def test_channel_to_boundary_untouched(self):
        m = np.ones((5, 5, 5), bool)
        m[2, 2, :] = False  # tunnel through
        out = fill_enclosed_voids(BinaryVolume(m))
        np.testing.assert_array_equal(out.mask, m)

    def test_idempotent(self):
        rng = np.random.default_rng(8)
        m = rng.random((9, 9, 9)) > 0.4
        once = fill_enclosed_voids(BinaryVolume(m))
        twice = fill_enclosed_voids(once)
        np.testing.assert_array_equal(once.mask, twice.mask)

    def test_open_tpms_pores_never_filled(self):
        from voxcorr.tpms import TpmsSpec, gyroid_field, tpms_solid

        spec = TpmsSpec(part_extent=2.56, voxel_size=80.0, band_halfwidth=0.69)
        f = gyroid_field(spec.grid_dims(), spec.voxel_size, spec.cell_size)
        solid = tpms_solid(f, spec, 0.0)
        out = fill_enclosed_voids(solid)
        assert np.count_nonzero(out.mask) == np.count_nonzero(solid.mask)


class TestCleanXct:
    def _noisy_scan(self, satellites: bool, seed=0):
        from voxcorr.tpms import DegradeSpec, TpmsSpec, gyroid_field, leveled_grayscale, tpms_solid

        rng = np.random.default_rng(seed)
        spec = TpmsSpec(part_extent=2.56, voxel_size=80.0, band_halfwidth=0.69)
        f = gyroid_field(spec.grid_dims(), spec.voxel_size, spec.cell_size)
        solid = tpms_solid(f, spec, -0.2)
        deg = DegradeSpec(0, 1, 0, 0, 0, 0, psf_sigma=0.8, noise_sigma=0.0)
        gray = leveled_grayscale(solid, deg).data.copy()
        if satellites:
            for _ in range(12):
                z, y, x = rng.integers(1, 31, size=3)
                if not solid.mask[z - 1 : z + 2, y - 1 : y + 2, x - 1 : x + 2].any():
                    gray[z, y, x] = 0.9
        return ScalarVolume(gray), solid

    def test_satellites_removed(self):
        noisy, solid = self._noisy_scan(satellites=True)
        clean_ref, _ = self._noisy_scan(satellites=False)
        _, bin_noisy = clean_xct(noisy, CleanSpec(erosion_radius=1, opening_radius=1))
        _, bin_ref = clean_xct(clean_ref, CleanSpec(erosion_radius=1, opening_radius=1))
        n_noisy, n_ref = np.count_nonzero(bin_noisy.mask), np.count_nonzero(bin_ref.mask)
        assert abs(n_noisy - n_ref) <= 0.02 * n_ref

    def test_noise_free_equals_filled_otsu(self):
        # single-component phantom: solid cube with a sealed cavity, mild blur
        from scipy.ndimage import gaussian_filter

        m = np.zeros((20, 20, 20), dtype=np.float32)
        m[4:16, 4:16, 4:16] = 1.0
        m[8:12, 8:12, 8:12] = 0.0
        vol = ScalarVolume(gaussian_filter(m, 0.8))
        gray, b = clean_xct(vol, CleanSpec(erosion_radius=0, opening_radius=0))
        _, otsu_bin = otsu_threshold(vol)
        filled = fill_enclosed_voids(otsu_bin)
        np.testing.assert_array_equal(b.mask, filled.mask)
        assert np.count_nonzero(b.mask) > np.count_nonzero(otsu_bin.mask)  # the cavity was filled

    def test_cleaning_never_exceeds_filled_otsu(self):
        noisy, _ = self._noisy_scan(satellites=True, seed=4)
        _, b = clean_xct(noisy, CleanSpec(erosion_radius=1, opening_radius=1))
        _, otsu_bin = otsu_threshold(noisy)
        hull = fill_enclosed_voids(otsu_bin)
        assert np.all(b.mask <= hull.mask)

    def test_speck_only_input_errors(self):
        data = np.zeros((8, 8, 8), dtype=np.float32)
        data[4, 4, 4] = 1.0  # single-voxel foreground is erased by erosion
        with pytest.raises(VolumeError):
            clean_xct(ScalarVolume(data), CleanSpec(erosion_radius=1, opening_radius=0))


class TestCoarseAlign:
    def test_identical_volumes_zero_shift(self):
        rng = np.random.default_rng(9)
        vol = ScalarVolume((rng.random((16, 16, 16)) > 0.7).astype(np.float32))
        aligned, shift = coarse_align(vol, vol)
        assert shift == (0, 0, 0)
        np.testing.assert_array_equal(aligned.data, vol.data)

    def test_recovers_translation(self):
        data = np.zeros((24, 24, 24), dtype=np.float32)
        data[8:14, 9:15, 10:16] = 1.0
        fixed = ScalarVolume(data)
        moving = shift_into(fixed, fixed.dims, (3, -2, 5), 0.0)
        aligned, shift = coarse_align(moving, fixed)
        assert shift == (-3, 2, -5)
        np.testing.assert_array_equal(aligned.data, fixed.data)

    def test_empty_foreground_rejected(self):
        with pytest.raises(VolumeError):
            coarse_align(
                ScalarVolume(np.ones((4, 4, 4), dtype=np.float32)),
                ScalarVolume(np.ones((4, 4, 4), dtype=np.float32)),
            )


class TestBuildDataset:
    def _write_raw_samples(self, tmp_path, n=3, dims=24):
        """raw/s<i>/ with sample.json (c = 0, -0.1, ...) and the three volumes."""
        from voxcorr.tpms import DeformSpec, DegradeSpec, TpmsSpec, synthesize_sample

        raw = tmp_path / "raw"
        for i in range(n):
            c = -0.1 * i
            spec = TpmsSpec(part_extent=dims * 0.08, voxel_size=80.0, band_halfwidth=0.69)
            cad, xct, gt = synthesize_sample(spec, c, DeformSpec(0.99, 1.0, 6.0), DegradeSpec(), i)
            d = raw / f"s{i}"
            d.mkdir(parents=True)
            vvol_write(d / "cad.vvol", ScalarVolume(cad.mask.astype(np.float32), cad.voxel_size))
            vvol_write(d / "xct.vvol", xct)
            vvol_write(d / "gt_disp.vvol", gt)
            (d / "sample.json").write_text(json.dumps({"id": f"s{i}", "c_param": c}))
        return raw

    def test_split_counts(self, tmp_path):
        raw = self._write_raw_samples(tmp_path, n=3)
        manifest = build_dataset(raw, tmp_path / "ds" / "manifest.json")  # grid of the first nominal volume
        assert manifest.target_dims == (24, 24, 24)
        assert {s.id: s.split for s in manifest.samples} == {"s0": "train", "s1": "val", "s2": "test"}
        for entry in manifest.samples:
            vol = vvol_read(tmp_path / "ds" / entry.id / "cad.vvol")
            assert vol.dims == (24, 24, 24)
            assert vol.data.min() == 0.0 and vol.data.max() == 1.0
            # the field moves with the scan's alignment shift
            shift = json.loads((tmp_path / "ds" / entry.id / "preprocess.json").read_text())["coarse_shift"]
            gt = vvol_read(tmp_path / "ds" / entry.id / "gt_disp.vvol").data
            raw_gt = vvol_read(raw / entry.id / "gt_disp.vvol").data
            assert gt.dtype == np.float32
            for c in range(3):
                np.testing.assert_array_equal(gt[c], raw_gt[c] + np.float32(shift[c]))

    def test_empty_sample_list_rejected(self, tmp_path):
        (tmp_path / "raw").mkdir()
        with pytest.raises(VolumeError):
            build_dataset(tmp_path / "raw", tmp_path / "ds" / "manifest.json", (8, 8, 8))

    def test_rebuild_is_byte_identical(self, tmp_path):
        raw = self._write_raw_samples(tmp_path, n=2)
        build_dataset(raw, tmp_path / "a" / "manifest.json", (24, 24, 24))
        build_dataset(raw, tmp_path / "b" / "manifest.json", (24, 24, 24))
        for sid in ("s0", "s1"):
            for name in ("cad.vvol", "xct.vvol", "gt_disp.vvol", "preprocess.json"):
                assert (tmp_path / "a" / sid / name).read_bytes() == (tmp_path / "b" / sid / name).read_bytes()

    def test_manifest_roundtrip(self, tmp_path):
        entries = [SampleEntry("a", 0.0, "train"), SampleEntry("b", -0.1, "val")]
        m = DatasetManifest(entries, (8, 8, 8), created_at="t")
        write_json(tmp_path / "m.json", m)
        back = DatasetManifest.load(tmp_path / "m.json")
        assert back == m

    def test_duplicate_ids_rejected(self):
        with pytest.raises(VolumeError):
            DatasetManifest([SampleEntry("a", 0, "train"), SampleEntry("a", 0, "val")], (8, 8, 8))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2 ** 31), bins=st.sampled_from([64, 256]))
def test_otsu_oracle_property(seed, bins):
    rng = np.random.default_rng(seed)
    data = rng.integers(0, 256, size=(6, 6, 6)).astype(np.float64)
    if data.max() == data.min():
        return
    thr, _ = otsu_threshold(ScalarVolume(data), bins=bins)
    assert thr == otsu_oracle(data, bins=bins)
