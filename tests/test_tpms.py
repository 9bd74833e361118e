from dataclasses import replace

import numpy as np
import pytest
from scipy.ndimage import binary_erosion, generate_binary_structure

from voxcorr.tpms import (
    DeformSpec,
    DegradeSpec,
    TpmsSpec,
    add_base_plate,
    add_spheres,
    degrade_to_xct,
    gyroid_field,
    leveled_grayscale,
    synth_displacement,
    tpms_solid,
)
from voxcorr.volume import BinaryVolume, VolumeError, warp

DESK = TpmsSpec(c_param=0.0, part_extent=5.12, voxel_size=80.0, band_halfwidth=0.69)


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
            solid = tpms_solid(f, replace(spec, band_halfwidth=tau))
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
        spec = TpmsSpec(c_param=0.0, band_halfwidth=1.6)
        assert tpms_solid(f, spec).mask.all()

    def test_thin_band_is_sparse_shell(self):
        f = gyroid_field((64, 64, 64), 80.0, 2.5)
        spec = TpmsSpec(c_param=0.0, band_halfwidth=0.02)
        mask = tpms_solid(f, spec).mask
        assert 0 < mask.mean() < 0.05

    def test_calibrated_band_hits_wall_thickness(self):
        tau = calibrate_band(0.5, DESK)
        spec = TpmsSpec(c_param=0.0, part_extent=5.12, voxel_size=80.0, band_halfwidth=tau)
        f = gyroid_field(spec.grid_dims(), spec.voxel_size, spec.cell_size)
        thick_vox = measure_wall_thickness(tpms_solid(f, spec))
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
        solid = tpms_solid(
            f, TpmsSpec(part_extent=2.56, voxel_size=80.0, band_halfwidth=tau)
        )
        measured_mm = measure_wall_thickness(solid) * spec.voxel_size / 1000.0
        assert measured_mm == pytest.approx(0.5, rel=0.05)

    def test_subresolution_target_rejected(self):
        with pytest.raises(VolumeError):
            calibrate_band(0.1, TpmsSpec(voxel_size=80.0))  # 1.25 voxels


class TestMaskEdits:
    def test_plate_zero_thickness_noop(self):
        f = gyroid_field((16, 16, 16), 80.0, 2.5)
        solid = tpms_solid(f, DESK)
        out = add_base_plate(solid, 0)
        np.testing.assert_array_equal(out.mask, solid.mask)

    def test_plate_full_height_solid(self):
        f = gyroid_field((16, 16, 16), 80.0, 2.5)
        solid = tpms_solid(f, DESK)
        assert add_base_plate(solid, 16).mask.all()

    def test_plate_fills_exactly_bottom_slab(self):
        f = gyroid_field((16, 16, 16), 80.0, 2.5)
        solid = tpms_solid(f, DESK)
        empty_below = int((~solid.mask[:4]).sum())
        out = add_base_plate(solid, 4)
        assert out.count() == solid.count() + empty_below

    def test_sphere_radius_zero_single_voxel(self):
        mask = BinaryVolume(np.zeros((9, 9, 9), bool))
        out = add_spheres(mask, [(4, 4, 4)], [0.0])
        assert out.count() == 1
        assert out.mask[4, 4, 4]

    def test_sphere_volume_close_to_analytic(self):
        mask = BinaryVolume(np.zeros((17, 17, 17), bool))
        out = add_spheres(mask, [(8, 8, 8)], [4.0])
        analytic = 4.0 / 3.0 * np.pi * 4.0 ** 3
        assert abs(out.count() - analytic) <= 0.3 * analytic

    def test_sphere_inside_solid_idempotent(self):
        mask = BinaryVolume(np.ones((9, 9, 9), bool))
        out = add_spheres(mask, [(4, 4, 4)], [2.0])
        np.testing.assert_array_equal(out.mask, mask.mask)


class TestSynthDisplacement:
    def test_identity_spec_gives_zero_field(self):
        u = synth_displacement((8, 8, 8), DeformSpec(1.0, 0.0, 12.0, seed=0))
        assert np.all(u.data == 0.0)

    def test_pure_shrink_is_affine(self):
        u = synth_displacement((9, 9, 9), DeformSpec(0.98, 0.0, 12.0, seed=0))
        assert u.data[0, 4, 4, 4] == pytest.approx(0.0, abs=1e-7)
        assert u.data[0, 4, 4, 8] == pytest.approx(-0.02 * 4, abs=1e-6)
        assert u.data[2, 0, 4, 4] == pytest.approx(0.02 * 4, abs=1e-6)

    def test_amplitude_rescale_exact(self):
        u = synth_displacement((24, 24, 24), DeformSpec(1.0, 3.0, 4.0, seed=5))
        assert np.abs(u.data).max() == pytest.approx(3.0, rel=1e-6)

    def test_deterministic(self):
        spec = DeformSpec(0.97, 2.0, 6.0, seed=9)
        a = synth_displacement((16, 16, 16), spec)
        b = synth_displacement((16, 16, 16), spec)
        np.testing.assert_array_equal(a.data, b.data)

    def test_smooth_part_near_zero_mean(self):
        u = synth_displacement((48, 48, 48), DeformSpec(1.0, 3.0, 8.0, seed=2))
        for c in range(3):
            assert abs(float(u.data[c].mean())) <= 0.05 * 3.0


class TestDegradeToXct:
    def spec64(self, c=-0.6):
        return TpmsSpec(c_param=c, part_extent=5.12, voxel_size=80.0, band_halfwidth=0.69)

    def test_identity_pipeline(self):
        spec = self.spec64()
        f = gyroid_field(spec.grid_dims(), spec.voxel_size, spec.cell_size)
        deg = DegradeSpec(0, 1, 0, 0, 0, 0, psf_sigma=1.0, noise_sigma=0, seed=0)
        dfm = DeformSpec(1.0, 0.0, 12.0, seed=0)
        xct, gt = degrade_to_xct(f, spec, dfm, deg)
        assert np.all(gt.data == 0.0)
        ref = leveled_grayscale(tpms_solid(f, spec), deg)
        np.testing.assert_allclose(xct.data, ref.data, atol=1e-6)

    def test_translation_roundtrip(self):
        spec = self.spec64()
        f = gyroid_field(spec.grid_dims(), spec.voxel_size, spec.cell_size)
        deg = DegradeSpec(0, 1, 0, 0, 0, 0, psf_sigma=1.5, noise_sigma=0, seed=0)
        # pure translation: shrink 1, amplitude 0, then add the constant by hand
        dfm = DeformSpec(1.0, 0.0, 12.0, seed=0)
        xct, gt = degrade_to_xct(f, spec, dfm, deg)
        gt2 = gt.data.copy()
        gt2[0] += 2.0
        from voxcorr.volume import DisplacementField, invert_field, warp_array

        g_inv = invert_field(DisplacementField(gt2))
        xct2 = warp_array(xct.data.astype(np.float64), g_inv.data.astype(np.float64))
        recon = warp_array(xct2, gt2.astype(np.float64))
        ref = leveled_grayscale(tpms_solid(f, spec), deg).data
        interior = (slice(6, -6),) * 3
        assert np.abs(recon[interior] - ref[interior]).max() <= 0.02

    def test_ground_truth_consistency(self):
        spec = self.spec64()
        f = gyroid_field(spec.grid_dims(), spec.voxel_size, spec.cell_size)
        deg = DegradeSpec(0, 1, 0, 0, 0, 0, psf_sigma=2.0, noise_sigma=0, seed=1)
        dfm = DeformSpec(0.98, 3.0, 12.0, seed=4)
        xct, gt = degrade_to_xct(f, spec, dfm, deg)
        ref = leveled_grayscale(tpms_solid(f, spec), deg)
        recon = warp(xct, gt)
        interior = (slice(4, -4),) * 3
        err = np.abs(recon.data[interior].astype(np.float64) - ref.data[interior]).mean()
        assert err <= 0.01

    def test_breakage_increases_missing_material(self):
        spec = self.spec64()
        f = gyroid_field(spec.grid_dims(), spec.voxel_size, spec.cell_size)
        dfm = DeformSpec(1.0, 0.0, 12.0, seed=0)
        base = DegradeSpec(0, 1, 0, 0, 0, 6.0, psf_sigma=1.0, noise_sigma=0, seed=3)
        broken = DegradeSpec(0, 1, 0, 0, 1, 6.0, psf_sigma=1.0, noise_sigma=0, seed=3)
        cad = tpms_solid(f, spec)

        def bdm_minus1(deg):
            from voxcorr.metrics import bdm
            from voxcorr.preprocess import otsu_threshold

            xct, _ = degrade_to_xct(f, spec, dfm, deg)
            _, xct_bin = otsu_threshold(xct)
            return bdm(xct_bin, cad).bdm_minus1_pct

        assert bdm_minus1(broken) > bdm_minus1(base)

    def test_determinism(self):
        spec = self.spec64()
        f = gyroid_field(spec.grid_dims(), spec.voxel_size, spec.cell_size)
        deg = DegradeSpec(seed=11)
        dfm = DeformSpec(seed=12)
        x1, g1 = degrade_to_xct(f, spec, dfm, deg)
        x2, g2 = degrade_to_xct(f, spec, dfm, deg)
        assert x1.data.tobytes() == x2.data.tobytes()
        assert g1.data.tobytes() == g2.data.tobytes()


class TestSweepContinuity:
    def test_solid_fraction_varies_continuously(self):
        f = gyroid_field((64, 64, 64), 80.0, 2.5)
        fracs = []
        for c in [0.0, -0.1, -0.2, -0.3, -0.4, -0.5, -0.6]:
            spec = TpmsSpec(c_param=c, part_extent=5.12, voxel_size=80.0, band_halfwidth=0.69)
            fracs.append(tpms_solid(f, spec).mask.mean())
        assert all(0.05 < fr < 0.95 for fr in fracs)
        assert max(abs(a - b) for a, b in zip(fracs, fracs[1:])) < 0.15
