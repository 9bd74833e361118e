"""Gyroid lattice phantom synthesis with known ground-truth deformation.

The nominal part is a sheet gyroid: solid where |F - C| <= tau for the
standard gyroid implicit function F. The simulated scan applies material-level
defects to the implicit field or mask (roughness, closed pores, breakage),
converts to grayscale (intensity levels, PSF blur, noise), then deforms
geometrically. The deformation is generated in the scan->nominal direction, so
warping the synthetic scan by the returned field reproduces the nominal
grayscale up to interpolation.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.ndimage import binary_erosion, gaussian_filter

from .volume import (
    BinaryVolume,
    DisplacementField,
    IVec3,
    ScalarVolume,
    VolumeError,
    invert_field,
    warp_array,
)

_CROSS6 = np.zeros((3, 3, 3), dtype=bool)
_CROSS6[1, 1, 1] = _CROSS6[0, 1, 1] = _CROSS6[2, 1, 1] = True
_CROSS6[1, 0, 1] = _CROSS6[1, 2, 1] = _CROSS6[1, 1, 0] = _CROSS6[1, 1, 2] = True


@dataclass(frozen=True)
class TpmsSpec:
    """Geometry of one gyroid sample; lengths in mm, voxel_size in µm."""

    c_param: float = 0.0
    cell_size: float = 2.5
    part_extent: float = 5.12
    voxel_size: float = 40.0
    band_halfwidth: float = 0.7

    def __post_init__(self):
        if not (-1.0 <= self.c_param <= 1.0):
            raise VolumeError(f"c_param must lie in [-1, 1], got {self.c_param}")
        if self.voxel_size <= 0 or self.part_extent <= 0:
            raise VolumeError("voxel_size and part_extent must be positive")

    def grid_dims(self) -> IVec3:
        n = int(round(self.part_extent * 1000.0 / self.voxel_size))
        return (n, n, n)


@dataclass(frozen=True)
class DeformSpec:
    """Ground-truth deformation: isotropic shrink about the grid centre plus a
    smooth random warp rescaled to a max-norm amplitude (voxels)."""

    shrink_factor: float = 0.98
    warp_amplitude: float = 3.0
    warp_smoothness: float = 12.0
    seed: int = 0

    def __post_init__(self):
        if not (0.9 <= self.shrink_factor <= 1.0):
            raise VolumeError(f"shrink_factor must lie in [0.9, 1.0], got {self.shrink_factor}")
        if self.warp_amplitude < 0 or self.warp_smoothness < 1:
            raise VolumeError("warp_amplitude must be >= 0 and warp_smoothness >= 1")


@dataclass(frozen=True)
class DegradeSpec:
    """Scan-style degradations: implicit-field roughness, closed pores, broken
    regions, intensity levels, PSF blur and additive noise."""

    roughness_amplitude: float = 0.08
    roughness_smoothness: float = 2.0
    pore_close_count: int = 2
    pore_close_radius: float = 3.0
    breakage_count: int = 0
    breakage_radius: float = 5.0
    psf_sigma: float = 1.0
    noise_sigma: float = 0.02
    fg_level: float = 0.85
    bg_level: float = 0.1
    seed: int = 0

    def __post_init__(self):
        vals = (
            self.roughness_amplitude,
            self.roughness_smoothness,
            self.pore_close_count,
            self.pore_close_radius,
            self.breakage_count,
            self.breakage_radius,
            self.psf_sigma,
            self.noise_sigma,
        )
        if any(v < 0 for v in vals):
            raise VolumeError("degradation parameters must be non-negative")
        if self.fg_level <= self.bg_level:
            raise VolumeError("fg_level must exceed bg_level")


def gyroid_field(dims: IVec3, voxel_size: float, cell_size: float) -> ScalarVolume:
    """Standard gyroid implicit function sampled at voxel centres.

    F = sin(kx)cos(ky) + sin(ky)cos(kz) + sin(kz)cos(kx), k = 2*pi/cell_size,
    with voxel i at physical position i * voxel_size.
    """
    if cell_size <= 0:
        raise VolumeError(f"cell_size must be positive, got {cell_size}")
    nx, ny, nz = (int(d) for d in dims)
    k = 2.0 * np.pi / cell_size
    pitch_mm = voxel_size / 1000.0
    x = (k * pitch_mm) * np.arange(nx, dtype=np.float64)[None, None, :]
    y = (k * pitch_mm) * np.arange(ny, dtype=np.float64)[None, :, None]
    z = (k * pitch_mm) * np.arange(nz, dtype=np.float64)[:, None, None]
    f = np.sin(x) * np.cos(y) + np.sin(y) * np.cos(z) + np.sin(z) * np.cos(x)
    return ScalarVolume(f.astype(np.float32), (voxel_size,) * 3)


def tpms_solid(field: ScalarVolume, spec: TpmsSpec) -> BinaryVolume:
    """Sheet-gyroid band: solid where |F - C| <= tau."""
    tau = spec.band_halfwidth
    if tau <= 0:
        raise VolumeError(f"band_halfwidth must be positive, got {tau}")
    mask = np.abs(field.data - spec.c_param) <= tau
    if not mask.any():
        raise VolumeError(f"empty solid: no voxels within |F - {spec.c_param}| <= {tau}")
    return BinaryVolume(mask, field.voxel_size)


def add_base_plate(mask: BinaryVolume, plate_thickness_voxels: int) -> BinaryVolume:
    t = int(plate_thickness_voxels)
    nz = mask.mask.shape[0]
    if t < 0 or t > nz:
        raise VolumeError(f"plate thickness {t} outside [0, {nz}]")
    out = mask.mask.copy()
    out[:t] = True
    return BinaryVolume(out, mask.voxel_size)


def add_spheres(mask: BinaryVolume, centers, radii) -> BinaryVolume:
    """Set voxels within each radius of each (x, y, z) centre to solid."""
    out = mask.mask.copy()
    nz, ny, nx = out.shape
    for (cx, cy, cz), r in zip(centers, radii):
        if not (0 <= cx < nx and 0 <= cy < ny and 0 <= cz < nz):
            raise VolumeError(f"sphere centre ({cx}, {cy}, {cz}) outside dims {mask.dims}")
        _stamp_sphere(out, (cx, cy, cz), r, True)
    return BinaryVolume(out, mask.voxel_size)


def _stamp_sphere(arr: np.ndarray, center, radius: float, value) -> None:
    """Set every voxel of `arr` within `radius` of (x, y, z) `center` to `value`."""
    cx, cy, cz = center
    r = float(radius)
    nz, ny, nx = arr.shape
    x0, x1 = max(0, int(np.floor(cx - r))), min(nx - 1, int(np.ceil(cx + r)))
    y0, y1 = max(0, int(np.floor(cy - r))), min(ny - 1, int(np.ceil(cy + r)))
    z0, z1 = max(0, int(np.floor(cz - r))), min(nz - 1, int(np.ceil(cz + r)))
    zz = np.arange(z0, z1 + 1)[:, None, None] - cz
    yy = np.arange(y0, y1 + 1)[None, :, None] - cy
    xx = np.arange(x0, x1 + 1)[None, None, :] - cx
    ball = zz * zz + yy * yy + xx * xx <= r * r
    region = arr[z0 : z1 + 1, y0 : y1 + 1, x0 : x1 + 1]
    region[ball] = value


def synth_displacement(dims: IVec3, spec: DeformSpec) -> DisplacementField:
    """u(x) = (shrink - 1) * (x - centre) + s(x), with s smoothed seeded noise
    rescaled so max |s| equals warp_amplitude. Deterministic given the seed."""
    nx, ny, nz = (int(d) for d in dims)
    rng = np.random.default_rng(spec.seed)
    s = rng.standard_normal((3, nz, ny, nx))
    if spec.warp_amplitude > 0:
        s = gaussian_filter(s, sigma=(0, spec.warp_smoothness, spec.warp_smoothness, spec.warp_smoothness))
        s -= s.mean(axis=(1, 2, 3), keepdims=True)  # finite-sample mean would otherwise be amplified by the rescale
        s *= spec.warp_amplitude / np.abs(s).max()
    else:
        s = np.zeros_like(s)
    a = spec.shrink_factor - 1.0
    u = s
    u[0] += a * (np.arange(nx, dtype=np.float64) - (nx - 1) / 2.0)[None, None, :]
    u[1] += a * (np.arange(ny, dtype=np.float64) - (ny - 1) / 2.0)[None, :, None]
    u[2] += a * (np.arange(nz, dtype=np.float64) - (nz - 1) / 2.0)[:, None, None]
    return DisplacementField(u.astype(np.float32))


def leveled_grayscale(mask: BinaryVolume, deg: DegradeSpec) -> ScalarVolume:
    """Intensity image of a mask: bg/fg levels plus PSF blur, no noise."""
    g = np.where(mask.mask, deg.fg_level, deg.bg_level).astype(np.float32)
    if deg.psf_sigma > 0:
        g = gaussian_filter(g, deg.psf_sigma)
    return ScalarVolume(g, mask.voxel_size)


def degrade_to_xct(
    cad_field: ScalarVolume,
    spec_tpms: TpmsSpec,
    spec_def: DeformSpec,
    spec_deg: DegradeSpec,
    mask_extras=None,
) -> tuple[ScalarVolume, DisplacementField]:
    """Simulate a scan of the as-built part from the nominal implicit field.

    Defects are applied before the geometric deformation so they ride along
    with the material. `mask_extras`, if given, is applied to the solid mask
    right after solidification (base plate, marker spheres) and must match the
    extras applied to the nominal mask. Returns (scan volume, ground-truth
    field); warping the scan by the field recovers the nominal grayscale.
    """
    rng = np.random.default_rng(spec_deg.seed)
    f = cad_field.data.astype(np.float64)

    if spec_deg.roughness_amplitude > 0:
        r = gaussian_filter(rng.standard_normal(f.shape), spec_deg.roughness_smoothness)
        r *= spec_deg.roughness_amplitude / np.abs(r).max()
        f = f + r

    if spec_deg.pore_close_count > 0:
        pores = np.abs(f - spec_tpms.c_param) > spec_tpms.band_halfwidth
        pore_idx = np.flatnonzero(pores)
        if pore_idx.size:
            picks = rng.choice(pore_idx, size=min(spec_deg.pore_close_count, pore_idx.size), replace=False)
            for flat in picks:
                z, y, x = np.unravel_index(flat, f.shape)
                _stamp_sphere(f, (x, y, z), spec_deg.pore_close_radius, spec_tpms.c_param)

    solid = tpms_solid(ScalarVolume(f.astype(np.float32), cad_field.voxel_size), spec_tpms)
    mask = solid.mask.copy()
    if mask_extras is not None:
        mask = mask_extras(mask)

    if spec_deg.breakage_count > 0:
        interior = binary_erosion(mask, structure=_CROSS6, border_value=1)
        surface_idx = np.flatnonzero(mask & ~interior)
        if surface_idx.size:
            picks = rng.choice(surface_idx, size=min(spec_deg.breakage_count, surface_idx.size), replace=False)
            for flat in picks:
                z, y, x = np.unravel_index(flat, mask.shape)
                _stamp_sphere(mask, (x, y, z), spec_deg.breakage_radius, False)

    gray = leveled_grayscale(BinaryVolume(mask, cad_field.voxel_size), spec_deg).data
    if spec_deg.noise_sigma > 0:
        gray = gray + rng.normal(0.0, spec_deg.noise_sigma, gray.shape).astype(np.float32)

    dims = cad_field.dims
    gt = synth_displacement(dims, spec_def)
    g_inv = invert_field(gt)
    xct = warp_array(gray.astype(np.float64), g_inv.data.astype(np.float64))
    return ScalarVolume(xct.astype(np.float32), cad_field.voxel_size), gt

