import numpy as np
import pytest

from voxcorr.figures import (
    central_slices,
    export_bdm_slices,
    export_displacement_magnitude,
    export_overlay_slices,
    write_pnm,
)
from voxcorr import volume
from voxcorr.metrics import BDM_OUTSIDE, bdm
from voxcorr.volume import BinaryVolume, DisplacementField, ScalarVolume, VolumeError


def read_pnm(path):
    blob = open(path, "rb").read()
    magic, dims, maxval, rest = blob.split(b"\n", 3)
    w, h = (int(t) for t in dims.split())
    arr = np.frombuffer(rest, dtype=np.uint8)
    if magic == b"P6":
        return arr.reshape(h, w, 3)
    return arr.reshape(h, w)


def box_volume(shape=(10, 12, 14), span=(2, 8)):
    data = np.zeros(shape, dtype=np.float32)
    data[span[0] : span[1], span[0] : span[1], span[0] : span[1]] = 1.0
    return ScalarVolume(data)


class TestWriters:
    def test_pgm_roundtrip(self, tmp_path):
        img = np.arange(12, dtype=np.uint8).reshape(3, 4)
        p = tmp_path / "x.pgm"
        write_pnm(p, img)
        assert open(p, "rb").read().startswith(b"P5\n4 3\n255\n")
        np.testing.assert_array_equal(read_pnm(p), img)

    def test_ppm_roundtrip(self, tmp_path):
        img = np.arange(36, dtype=np.uint8).reshape(3, 4, 3)
        p = tmp_path / "x.ppm"
        write_pnm(p, img)
        assert open(p, "rb").read().startswith(b"P6\n4 3\n255\n")
        np.testing.assert_array_equal(read_pnm(p), img)

    @pytest.mark.parametrize("img", [np.zeros((3, 4), np.float32), np.zeros((3, 4, 4), np.uint8),
                                     np.zeros((2, 3, 4, 3), np.uint8)])
    def test_rejects_other_images(self, tmp_path, img):
        with pytest.raises(VolumeError):
            write_pnm(tmp_path / "x.pnm", img)
        assert not (tmp_path / "x.pnm").exists()


def mask_of(vol):
    return BinaryVolume(vol.data > 0.5)


class TestOverlay:
    def test_identical_volumes_no_pure_green(self, tmp_path):
        vol = box_volume()
        paths = export_overlay_slices(mask_of(vol), vol, mask_of(vol), tmp_path)
        assert len(paths) == 3
        for p in paths:
            img = read_pnm(p).astype(int)
            pure_green = (img[..., 0] == 0) & (img[..., 1] == 200) & (img[..., 2] == 0)
            assert pure_green.sum() == 0

    def test_empty_scan_fully_green_foreground(self, tmp_path):
        cad = box_volume()
        xct = ScalarVolume(np.zeros(cad.data.shape, dtype=np.float32))
        paths = export_overlay_slices(mask_of(cad), xct, mask_of(xct), tmp_path, prefix="empty")
        img = read_pnm(paths[2]).astype(int)  # xy plane
        inside = (slice(2, 8), slice(2, 8))
        assert np.all(img[inside] == [0, 200, 0])

    def test_image_dims_match_slices(self, tmp_path):
        vol = box_volume(shape=(10, 12, 14))
        paths = export_overlay_slices(mask_of(vol), vol, mask_of(vol), tmp_path, prefix="dims")
        xz, yz, xy = (read_pnm(p) for p in paths)
        assert xz.shape[:2] == (10, 14)  # rows z, cols x
        assert yz.shape[:2] == (10, 12)  # rows z, cols y
        assert xy.shape[:2] == (12, 14)  # rows y, cols x


class TestBdmSlices:
    def test_all_match_is_white(self, tmp_path):
        m = box_volume().data > 0.5
        bdm_map, _ = bdm(BinaryVolume(m), BinaryVolume(m))
        paths = export_bdm_slices(bdm_map, tmp_path)
        img = read_pnm(paths[0])
        union = central_slice_union = (img == 255).all(axis=2)
        assert union.any()
        # everything is either white (union) or light gray (outside)
        light = (img == 220).all(axis=2)
        assert np.all(union | light)

    def test_single_plus_one_red_pixel(self, tmp_path):
        cad = np.zeros((9, 9, 9), bool)
        cad[2:7, 2:7, 2:7] = True
        xct = cad.copy()
        xct[4, 4, 8] = True  # +1 voxel on the central xz/yz slices
        bdm_map, _ = bdm(BinaryVolume(xct), BinaryVolume(cad))
        paths = export_bdm_slices(bdm_map, tmp_path)
        xz = read_pnm(paths[0]).astype(int)
        red = (xz[..., 0] == 255) & (xz[..., 1] == 0) & (xz[..., 2] == 0)
        assert red.sum() == 1

    def test_color_histogram_matches_percentages(self, tmp_path):
        # single-slice volume: slice color counts mirror the BDM percentages
        rng = np.random.default_rng(3)
        cad = rng.random((1, 16, 16)) > 0.5
        xct = rng.random((1, 16, 16)) > 0.5
        if not (cad | xct).any():
            cad[0, 0, 0] = True
        bdm_map, shares = bdm(BinaryVolume(xct), BinaryVolume(cad))
        paths = export_bdm_slices(bdm_map, tmp_path, prefix="hist")
        xy = read_pnm(paths[2]).astype(int)
        n_union = int((bdm_map != BDM_OUTSIDE).sum())
        red = ((xy == [255, 0, 0]).all(axis=2)).sum()
        blue = ((xy == [0, 0, 255]).all(axis=2)).sum()
        white = ((xy == [255, 255, 255]).all(axis=2)).sum()
        assert red / n_union * 100 == pytest.approx(shares["plus1"])
        assert blue / n_union * 100 == pytest.approx(shares["minus1"])
        assert white / n_union * 100 == pytest.approx(shares["zero"])


class TestDisplacementMagnitude:
    def test_zero_field_black(self, tmp_path):
        disp = DisplacementField(np.zeros((3, 8, 8, 8), dtype=np.float32))
        mask = BinaryVolume(np.ones((8, 8, 8), bool))
        paths = export_displacement_magnitude(disp, mask, tmp_path)
        for p in paths:
            assert read_pnm(p).max() == 0

    def test_constant_field_uniform_midgray(self, tmp_path):
        data = np.zeros((3, 8, 8, 8), dtype=np.float32)
        data[0] = 3.0
        disp = DisplacementField(data)
        mask = BinaryVolume(np.ones((8, 8, 8), bool))
        paths = export_displacement_magnitude(disp, mask, tmp_path, prefix="const")
        img = read_pnm(paths[0])
        assert np.all(img == 128)

    def test_magnitude_scaling(self, tmp_path):
        data = np.zeros((3, 4, 4, 4), dtype=np.float32)
        data[:, 2, 2, 2] = (1.0, 2.0, 2.0)  # |u| = 3 at one voxel
        data[:, 1, 1, 1] = (1.0, 0.0, 0.0)
        disp = DisplacementField(data)
        mask = BinaryVolume(np.ones((4, 4, 4), bool))
        paths = export_displacement_magnitude(disp, mask, tmp_path, prefix="scale")
        xy = read_pnm(paths[2])  # central xy plane holds the |u|=3 voxel
        assert xy.max() == 255

    @pytest.mark.parametrize("block", [None, 100], ids=["one-chunk", "chunk-per-plane"])
    @pytest.mark.parametrize("case", ["random", "constant", "zero"])
    def test_same_bytes_as_scaling_the_whole_volume(self, tmp_path, monkeypatch, case, block):
        # the slices-only scaling, with bounds taken chunk by chunk, against
        # the whole-volume formula it replaced
        if block:
            monkeypatch.setattr(volume, "BLOCK", block)
        rng = np.random.default_rng(2)
        data = {"random": rng.uniform(-3, 3, (3, 7, 8, 9)), "constant": np.full((3, 7, 8, 9), 0.75),
                "zero": np.zeros((3, 7, 8, 9))}[case].astype(np.float32)
        mask = BinaryVolume(rng.random((7, 8, 9)) > 0.4)
        mag = np.sqrt((data.astype(np.float64) ** 2).sum(axis=0))
        lo, hi = float(mag.min()), float(mag.max())
        if hi > lo:
            scaled = (mag - lo) / (hi - lo) * 255.0
        elif hi == 0.0:
            scaled = np.zeros_like(mag)
        else:
            scaled = np.full_like(mag, 128.0)
        scaled[~mask.mask] = 0.0
        paths = export_displacement_magnitude(DisplacementField(data), mask, tmp_path)
        for p, (plane, want) in zip(paths, central_slices(scaled).items(), strict=True):
            assert p.endswith(f"_{plane}.pgm")
            assert np.array_equal(read_pnm(p), np.clip(want, 0, 255).astype(np.uint8))

    def test_background_forced_black(self, tmp_path):
        rng = np.random.default_rng(1)
        disp = DisplacementField(rng.uniform(1, 2, (3, 6, 6, 6)).astype(np.float32))
        mask = BinaryVolume(np.zeros((6, 6, 6), bool))
        paths = export_displacement_magnitude(disp, mask, tmp_path, prefix="bg")
        for p in paths:
            assert read_pnm(p).max() == 0
