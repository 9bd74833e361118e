from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from scipy.ndimage import binary_erosion, gaussian_filter, generate_binary_structure

from voxcorr import volume
from voxcorr.tpms import (
    DeformSpec,
    DegradeSpec,
    TpmsSpec,
    _stamp_sphere,
    degrade_to_xct,
    gyroid_field,
    leveled_grayscale,
    synth_displacement,
    synthesize_sample,
    tpms_solid,
)
from voxcorr.volume import BinaryVolume, ScalarVolume, VolumeError, grid_coords, trilinear_gather, warp

DESK = TpmsSpec(part_extent=5.12, voxel_size=80.0, band_halfwidth=0.69)


def measure_wall_thickness(mask: BinaryVolume, max_steps: int = 256) -> float:
    """Mean wall thickness in voxels from the erosion-depth profile.

    Repeated 6-connected erosions (domain border treated as solid) give each
    voxel a peel depth; a slab of thickness t has mean depth (t - 2) / 4, so
    t ~= 4 * mean_depth + 2.
    """
    m = mask.mask
    n0 = int(m.sum())
    if n0 == 0:
        return 0.0
    cross6 = generate_binary_structure(3, 1)
    total = 0
    for _ in range(max_steps):
        m = binary_erosion(m, structure=cross6, border_value=1)
        n = int(m.sum())
        total += n
        if n == 0:
            break
    return 4.0 * (total / n0) + 2.0


def calibrate_band(target_thickness_mm: float, spec: TpmsSpec, tolerance: float = 0.05) -> float:
    """Bisect the band half-width until the measured mean wall thickness is
    within `tolerance` of the target. Returns the calibrated half-width."""
    target_vox = target_thickness_mm * 1000.0 / spec.voxel_size
    if target_vox < 3.0:
        raise VolumeError(f"target thickness {target_thickness_mm} mm is under 3 voxels; not resolvable")
    f = gyroid_field(spec.grid_dims(), spec.voxel_size, spec.cell_size)

    def measured(tau: float) -> float:
        try:
            solid = tpms_solid(f, replace(spec, band_halfwidth=tau), 0.0)
        except VolumeError:
            return 0.0
        return measure_wall_thickness(solid)

    lo, hi = 1e-3, 1.7
    if measured(lo) > target_vox * (1 + tolerance) or measured(hi) < target_vox * (1 - tolerance):
        raise VolumeError(f"wall thickness {target_thickness_mm} mm not bracketed by band widths [{lo}, {hi}]")
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        t = measured(mid)
        if abs(t - target_vox) <= tolerance * target_vox:
            return mid
        if t < target_vox:
            lo = mid
        else:
            hi = mid
    raise VolumeError("band calibration did not converge to the requested tolerance")


def gyroid_function(x, y, z, cell):
    k = 2 * np.pi / cell
    return np.sin(k * x) * np.cos(k * y) + np.sin(k * y) * np.cos(k * z) + np.sin(k * z) * np.cos(k * x)


class TestGyroidField:
    def test_zero_at_origin(self):
        f = gyroid_field((8, 8, 8), 40.0, 2.5)
        assert f.data[0, 0, 0] == 0.0

    def test_quarter_cell_closed_form(self):
        # voxel pitch chosen so that index 25 sits at exactly cell/4
        f = gyroid_field((32, 4, 4), 25.0, 2.5)
        assert f.data[0, 0, 25] == pytest.approx(1.0, abs=1e-6)

    def test_bounded_by_1p5(self):
        f = gyroid_field((64, 64, 64), 80.0, 2.5)
        assert np.abs(f.data).max() <= 1.5

    def test_matches_direct_evaluation(self):
        f = gyroid_field((9, 7, 5), 100.0, 2.5)
        xs = np.arange(9) * 0.1
        ys = np.arange(7) * 0.1
        zs = np.arange(5) * 0.1
        ref = gyroid_function(xs[None, None, :], ys[None, :, None], zs[:, None, None], 2.5)
        np.testing.assert_allclose(f.data, ref, atol=1e-6)


class TestTpmsSolid:
    def test_band_covering_range_is_fully_solid(self):
        f = gyroid_field((16, 16, 16), 80.0, 2.5)
        spec = TpmsSpec(band_halfwidth=1.6)
        assert tpms_solid(f, spec, 0.0).mask.all()

    def test_thin_band_is_sparse_shell(self):
        f = gyroid_field((64, 64, 64), 80.0, 2.5)
        spec = TpmsSpec(band_halfwidth=0.02)
        mask = tpms_solid(f, spec, 0.0).mask
        assert 0 < mask.mean() < 0.05

    def test_calibrated_band_hits_wall_thickness(self):
        tau = calibrate_band(0.5, DESK)
        spec = TpmsSpec(part_extent=5.12, voxel_size=80.0, band_halfwidth=tau)
        f = gyroid_field(spec.grid_dims(), spec.voxel_size, spec.cell_size)
        thick_vox = measure_wall_thickness(tpms_solid(f, spec, 0.0))
        assert thick_vox * spec.voxel_size / 1000.0 == pytest.approx(0.5, rel=0.10)


class TestCalibrateBand:
    def test_monotone_in_target(self):
        spec = TpmsSpec(part_extent=2.56, voxel_size=80.0)
        t1 = calibrate_band(0.4, spec)
        t2 = calibrate_band(0.8, spec)
        assert t2 > t1

    def test_self_consistent(self):
        spec = TpmsSpec(part_extent=2.56, voxel_size=80.0)
        tau = calibrate_band(0.5, spec)
        f = gyroid_field(spec.grid_dims(), spec.voxel_size, spec.cell_size)
        solid = tpms_solid(f, TpmsSpec(part_extent=2.56, voxel_size=80.0, band_halfwidth=tau), 0.0)
        measured_mm = measure_wall_thickness(solid) * spec.voxel_size / 1000.0
        assert measured_mm == pytest.approx(0.5, rel=0.05)

    def test_subresolution_target_rejected(self):
        with pytest.raises(VolumeError):
            calibrate_band(0.1, TpmsSpec(voxel_size=80.0))  # 1.25 voxels


SMALL = TpmsSpec(part_extent=1.28, voxel_size=80.0, band_halfwidth=0.69)  # 16^3
STILL = DeformSpec(1.0, 0.0, 12.0)  # identity field
QUIET = DegradeSpec(0, 1, 0, 0, 0, 0, psf_sigma=1.0, noise_sigma=0)  # levels and blur only


def ball(shape, x, y, z, r):
    """Voxels of a [z, y, x] grid within r of (x, y, z)."""
    zz, yy, xx = np.indices(shape)
    return (xx - x) ** 2 + (yy - y) ** 2 + (zz - z) ** 2 <= r * r


class TestMaskEdits:
    """The base plate and the marker spheres reach the nominal mask and the scan."""

    def solid(self, spec=SMALL):
        return tpms_solid(gyroid_field(spec.grid_dims(), spec.voxel_size, spec.cell_size), spec, 0.0).mask

    def nominal(self, plate=0, spheres=()):
        cad, _, _ = synthesize_sample(SMALL, 0.0, STILL, QUIET, 0, plate, spheres)
        return cad.mask

    def test_plate_zero_thickness_noop(self):
        np.testing.assert_array_equal(self.nominal(0), self.solid())

    def test_plate_full_height_solid(self):
        assert self.nominal(16).all()

    def test_plate_fills_exactly_bottom_slab(self):
        solid = self.solid()
        out = self.nominal(4)
        assert out.sum() == solid.sum() + (~solid[:4]).sum()
        assert out[:4].all()
        np.testing.assert_array_equal(out[4:], solid[4:])

    def test_sphere_radius_zero_single_voxel(self):
        solid = self.solid()
        z, y, x = np.argwhere(~solid)[0]
        out = self.nominal(spheres=[(x, y, z, 0.0)])
        assert out.sum() == solid.sum() + 1
        assert out[z, y, x]

    def test_sphere_volume_close_to_analytic(self):
        sphere = ball((16, 16, 16), 8, 8, 8, 4.0)
        np.testing.assert_array_equal(self.nominal(spheres=[(8, 8, 8, 4.0)]), self.solid() | sphere)
        analytic = 4.0 / 3.0 * np.pi * 4.0 ** 3
        assert abs(sphere.sum() - analytic) <= 0.3 * analytic

    def test_sphere_inside_solid_idempotent(self):
        np.testing.assert_array_equal(self.nominal(8, [(4, 4, 2, 2.0)]), self.nominal(8))

    def test_nominal_is_solid_or_markers(self):
        markers = ball((16, 16, 16), 10, 10, 10, 3)
        markers[:2] = True
        np.testing.assert_array_equal(self.nominal(2, [(10, 10, 10, 3)]), self.solid() | markers)

    @pytest.mark.parametrize("plate", [-1, 17])
    def test_plate_out_of_range_rejected(self, plate):
        with pytest.raises(VolumeError, match="plate thickness"):
            self.nominal(plate)

    @pytest.mark.parametrize("centre", [(16, 4, 4), (4, -1, 4), (4, 4, 16)])
    def test_sphere_centre_outside_rejected(self, centre):
        with pytest.raises(VolumeError, match="sphere centre"):
            self.nominal(spheres=[(*centre, 2.0)])

    def test_negative_sphere_radius_rejected(self):
        with pytest.raises(VolumeError, match="sphere radius -3 is negative"):
            self.nominal(spheres=[(4, 4, 4, -3)])

    def test_scan_bright_inside_markers(self):
        # the scan's solid mask gets the markers too: warped back by its own
        # field, the scan is bright deep inside the plate and the sphere,
        # where the gyroid alone leaves pores
        spec = TpmsSpec(part_extent=2.56, voxel_size=80.0, band_halfwidth=0.69)  # 32^3
        deg = DegradeSpec()
        plate = np.zeros((32, 32, 32), bool)
        plate[1:4, 4:-4, 4:-4] = True
        sphere = ball((32, 32, 32), 16, 16, 20, 3.0)
        assert not self.solid(spec)[plate].all() and not self.solid(spec)[sphere].all()
        _, scan, gt = synthesize_sample(spec, 0.0, DeformSpec(0.98, 1.5, 8.0), deg, 7, 5, [(16, 16, 20, 5.0)])
        assert np.abs(gt.data).max() > 1.0
        recon = warp(scan, gt).data
        mid = 0.5 * (deg.fg_level + deg.bg_level)
        assert recon[plate].min() > mid
        assert recon[sphere].min() > mid


class TestSynthDisplacement:
    def test_identity_spec_gives_zero_field(self):
        u = synth_displacement((8, 8, 8), DeformSpec(1.0, 0.0, 12.0), 0)
        assert np.all(u.data == 0.0)

    def test_pure_shrink_is_affine(self):
        u = synth_displacement((9, 9, 9), DeformSpec(0.98, 0.0, 12.0), 0)
        assert u.data[0, 4, 4, 4] == pytest.approx(0.0, abs=1e-7)
        assert u.data[0, 4, 4, 8] == pytest.approx(-0.02 * 4, abs=1e-6)
        assert u.data[2, 0, 4, 4] == pytest.approx(0.02 * 4, abs=1e-6)

    def test_amplitude_rescale_exact(self):
        u = synth_displacement((24, 24, 24), DeformSpec(1.0, 3.0, 4.0), 5)
        assert np.abs(u.data).max() == pytest.approx(3.0, rel=1e-6)

    def test_deterministic(self):
        spec = DeformSpec(0.97, 2.0, 6.0)
        a = synth_displacement((16, 16, 16), spec, 9)
        b = synth_displacement((16, 16, 16), spec, 9)
        np.testing.assert_array_equal(a.data, b.data)

    @pytest.mark.parametrize("dims, spec, seed", [
        ((13, 17, 20), DeformSpec(0.97, 2.0, 4.0), 3),
        ((24, 20, 16), DeformSpec(0.98, 3.0, 12.0), 1),  # sigma wider than the grid: reflected tails
    ])
    def test_same_bytes_as_one_4d_filter(self, dims, spec, seed):
        nx, ny, nz = dims
        s = np.random.default_rng(seed).standard_normal((3, nz, ny, nx))
        sig = spec.warp_smoothness
        s = gaussian_filter(s, sigma=(0, sig, sig, sig))
        s -= s.mean(axis=(1, 2, 3), keepdims=True)
        s *= spec.warp_amplitude / np.abs(s).max()
        a = spec.shrink_factor - 1.0
        s[0] += a * (np.arange(nx, dtype=np.float64) - (nx - 1) / 2.0)[None, None, :]
        s[1] += a * (np.arange(ny, dtype=np.float64) - (ny - 1) / 2.0)[None, :, None]
        s[2] += a * (np.arange(nz, dtype=np.float64) - (nz - 1) / 2.0)[:, None, None]
        assert synth_displacement(dims, spec, seed).data.tobytes() == s.astype(np.float32).tobytes()

    @pytest.mark.parametrize("shape, sigma", [((13, 17, 20), 4.0), ((24, 20, 16), 12.0), ((5, 1, 9), 2.0)])
    def test_in_place_smoothing_matches_a_separate_output(self, shape, sigma):
        # synth_displacement and degrade_to_xct filter their noise in its own buffer
        a = np.random.default_rng(8).standard_normal(shape)
        want = gaussian_filter(a, sigma, output=np.empty_like(a))
        gaussian_filter(a, sigma, output=a)
        assert a.tobytes() == want.tobytes()

    def test_smooth_part_near_zero_mean(self):
        u = synth_displacement((48, 48, 48), DeformSpec(1.0, 3.0, 8.0), 2)
        for c in range(3):
            assert abs(float(u.data[c].mean())) <= 0.05 * 3.0


class TestDegradeToXct:
    """The scan and ground truth of synthesize_sample, made by degrade_to_xct."""

    spec = DESK  # 64^3
    c = -0.6

    def nominal_gray(self, deg):
        f = gyroid_field(self.spec.grid_dims(), self.spec.voxel_size, self.spec.cell_size)
        return leveled_grayscale(tpms_solid(f, self.spec, self.c), deg)

    def test_identity_pipeline(self):
        deg = DegradeSpec(0, 1, 0, 0, 0, 0, psf_sigma=1.0, noise_sigma=0)
        _, xct, gt = synthesize_sample(self.spec, self.c, STILL, deg, 0)
        assert np.all(gt.data == 0.0)
        np.testing.assert_allclose(xct.data, self.nominal_gray(deg).data, atol=1e-6)

    def test_translation_roundtrip(self):
        deg = DegradeSpec(0, 1, 0, 0, 0, 0, psf_sigma=1.5, noise_sigma=0)
        # pure translation: shrink 1, amplitude 0, then add the constant by hand
        _, xct, gt = synthesize_sample(self.spec, self.c, STILL, deg, 0)
        gt2 = gt.data.copy()
        gt2[0] += 2.0
        from voxcorr.volume import DisplacementField, invert_field, warp_array

        g_inv = invert_field(DisplacementField(gt2))
        xct2 = warp_array(xct.data.astype(np.float64), g_inv.data.astype(np.float64))
        recon = warp_array(xct2, gt2.astype(np.float64))
        ref = self.nominal_gray(deg).data
        interior = (slice(6, -6),) * 3
        assert np.abs(recon[interior] - ref[interior]).max() <= 0.02

    def test_ground_truth_consistency(self):
        deg = DegradeSpec(0, 1, 0, 0, 0, 0, psf_sigma=2.0, noise_sigma=0)
        _, xct, gt = synthesize_sample(self.spec, self.c, DeformSpec(0.98, 3.0, 12.0), deg, 4)
        recon = warp(xct, gt)
        interior = (slice(4, -4),) * 3
        err = np.abs(recon.data[interior].astype(np.float64) - self.nominal_gray(deg).data[interior]).mean()
        assert err <= 0.01

    def test_breakage_increases_missing_material(self):
        base = DegradeSpec(0, 1, 0, 0, 0, 6.0, psf_sigma=1.0, noise_sigma=0)
        broken = DegradeSpec(0, 1, 0, 0, 1, 6.0, psf_sigma=1.0, noise_sigma=0)

        def bdm_minus1(deg):
            from voxcorr.metrics import bdm
            from voxcorr.preprocess import otsu_threshold

            cad, xct, _ = synthesize_sample(self.spec, self.c, STILL, deg, 2)
            _, xct_bin = otsu_threshold(xct)
            return bdm(xct_bin, cad)[0]["minus1"]

        assert bdm_minus1(broken) > bdm_minus1(base)

    def test_determinism(self):
        (c1, x1, g1), (c2, x2, g2) = (synthesize_sample(self.spec, self.c, DeformSpec(), DegradeSpec(), 11)
                                      for _ in range(2))
        np.testing.assert_array_equal(c1.mask, c2.mask)
        assert x1.data.tobytes() == x2.data.tobytes()
        assert g1.data.tobytes() == g2.data.tobytes()

    def test_same_bytes_on_one_thread_and_the_pool(self, monkeypatch):
        # invert_field's blocks and the noise's channel filters run on the pool;
        # 4096-voxel blocks give the 32^3 grid 8 invert items
        spec = TpmsSpec(part_extent=2.56, voxel_size=80.0, band_halfwidth=0.69)
        deg = DegradeSpec(pore_close_count=3, breakage_count=2, breakage_radius=3.0)
        monkeypatch.setattr(volume, "BLOCK", 4096)
        pool = ThreadPoolExecutor(3)
        runs = []
        try:
            for workers, p in ((1, None), (4, pool)):
                monkeypatch.setattr(volume, "WORKERS", workers)
                monkeypatch.setattr(volume, "_POOL", p)
                cad, xct, gt = synthesize_sample(spec, -0.3, DeformSpec(), deg, 5, 2, [(16, 16, 20, 4.0)])
                runs.append([cad.mask.tobytes(), xct.data.tobytes(), gt.data.tobytes()])
        finally:
            pool.shutdown()
        assert runs[1] == runs[0]

    @pytest.mark.parametrize("deg", [
        DegradeSpec(),
        DegradeSpec(pore_close_count=3, breakage_count=2, breakage_radius=3.0, noise_sigma=0.05),
    ])
    def test_same_bytes_as_whole_grid_synthesis(self, deg):
        """degrade_to_xct against the whole-volume formulas: the inverse
        iterated in float32 on the whole grid, and the float32 scan warped by
        one gather on the whole grid's float32 coordinates."""
        spec, c, deform, seed = TpmsSpec(part_extent=1.92, voxel_size=80.0, band_halfwidth=0.69), -0.3, DeformSpec(), 7
        cad = gyroid_field(spec.grid_dims(), spec.voxel_size, spec.cell_size)  # 24^3
        markers = np.zeros(cad.data.shape, bool)
        markers[:2] = True

        rng = np.random.default_rng(seed + 1)
        f = cad.data.astype(np.float64)
        r = gaussian_filter(rng.standard_normal(f.shape), deg.roughness_smoothness)
        r *= deg.roughness_amplitude / np.abs(r).max()
        f = f + r
        pore_idx = np.flatnonzero(np.abs(f - c) > spec.band_halfwidth)
        for flat in rng.choice(pore_idx, size=min(deg.pore_close_count, pore_idx.size), replace=False):
            z, y, x = np.unravel_index(flat, f.shape)
            _stamp_sphere(f, (x, y, z), deg.pore_close_radius, c)
        mask = tpms_solid(ScalarVolume(f.astype(np.float32), cad.voxel_size), spec, c).mask | markers
        if deg.breakage_count:
            surface_idx = np.flatnonzero(mask & ~binary_erosion(mask, structure=generate_binary_structure(3, 1),
                                                               border_value=1))
            for flat in rng.choice(surface_idx, size=min(deg.breakage_count, surface_idx.size), replace=False):
                z, y, x = np.unravel_index(flat, mask.shape)
                _stamp_sphere(mask, (x, y, z), deg.breakage_radius, False)
        gray = leveled_grayscale(BinaryVolume(mask, cad.voxel_size), deg).data
        gray = gray + rng.normal(0.0, deg.noise_sigma, gray.shape).astype(np.float32)
        gt = synth_displacement(cad.dims, deform, seed)
        u = gt.data
        zz, yy, xx = grid_coords(u.shape[1:], dtype=np.float32)
        g = -u
        for _ in range(8):
            g = -trilinear_gather(u, xx + g[0], yy + g[1], zz + g[2])
        want = trilinear_gather(gray, xx + g[0], yy + g[1], zz + g[2])

        xct, gt_got = degrade_to_xct(spec, c, deform, deg, seed, markers)
        assert gt_got.data.tobytes() == gt.data.tobytes()
        assert xct.data.tobytes() == want.tobytes()


class TestSweepContinuity:
    def test_solid_fraction_varies_continuously(self):
        f = gyroid_field((64, 64, 64), 80.0, 2.5)
        fracs = []
        for c in [0.0, -0.1, -0.2, -0.3, -0.4, -0.5, -0.6]:
            fracs.append(tpms_solid(f, DESK, c).mask.mean())
        assert all(0.05 < fr < 0.95 for fr in fracs)
        assert max(abs(a - b) for a, b in zip(fracs, fracs[1:])) < 0.15
