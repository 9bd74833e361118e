"""Gyroid lattice phantom synthesis with known ground-truth deformation.

The nominal part is a sheet gyroid: solid where |F - c| <= tau for the
standard gyroid implicit function F and the level-set offset c. The simulated
scan applies material-level defects to the implicit field or mask (roughness,
closed pores, breakage), converts to grayscale (intensity levels, PSF blur,
noise), then deforms geometrically. The deformation is generated in the
scan->nominal direction, so warping the synthetic scan by the returned field
reproduces the nominal grayscale up to interpolation.

synthesize_sample makes one sample. The specs describe the whole sweep; c and
the seed are per-sample arguments: the deformation draws from `seed` and the
degradations from `seed + 1`. A base plate and marker spheres form one mask
that is OR-ed into both the nominal and the scan's solid mask.

degrade_to_xct holds only what its next step needs, and no float64 copy of a
volume that is kept in float32. It makes the field first, while the least
else is held, and builds its own implicit field from the TpmsSpec, so the
caller holds none through the synthesis. It finds the pore candidates one
block of the grid at a time (volume.blocks), and casts the implicit field to
float32, freeing its float64 copy, before the solid mask is taken. It smooths
its noise in place and finds max |s| as max(s.max(), -s.min()), with no |s|
array. It warps the float32 scan by the float32 inverse field with float64
arithmetic (volume.trilinear_gather's dtype), block by block into a float32
scan. The outputs are the bits of the whole-volume float64 formulas.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .preprocess import CROSS6, MIN_GRID
from .volume import (
    BinaryVolume,
    DisplacementField,
    IVec3,
    ScalarVolume,
    VolumeError,
    blocks,
    grid_coords,
    invert_field,
    parallel_map,
    trilinear_gather,
)


@dataclass(frozen=True)
class TpmsSpec:
    """Geometry of the gyroid samples; lengths in mm, voxel_size in µm."""

    cell_size: float = 2.5
    part_extent: float = 5.12
    voxel_size: float = 40.0
    band_halfwidth: float = 0.7

    def __post_init__(self):
        if min(self.cell_size, self.part_extent, self.voxel_size, self.band_halfwidth) <= 0:
            raise VolumeError("cell_size, part_extent, voxel_size and band_halfwidth must be positive")
        if min(self.grid_dims()) < MIN_GRID:
            raise VolumeError(f"grid {self.grid_dims()} must have at least {MIN_GRID} voxels per axis")

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
    with voxel i at physical position i * voxel_size; cell_size > 0 (TpmsSpec
    checks it).
    """
    nx, ny, nz = (int(d) for d in dims)
    k = 2.0 * np.pi / cell_size
    pitch_mm = voxel_size / 1000.0
    x = (k * pitch_mm) * np.arange(nx, dtype=np.float64)[None, None, :]
    y = (k * pitch_mm) * np.arange(ny, dtype=np.float64)[None, :, None]
    z = (k * pitch_mm) * np.arange(nz, dtype=np.float64)[:, None, None]
    f = np.sin(x) * np.cos(y) + np.sin(y) * np.cos(z) + np.sin(z) * np.cos(x)
    return ScalarVolume(f.astype(np.float32), (voxel_size,) * 3)


def tpms_solid(field: ScalarVolume, spec: TpmsSpec, c: float) -> BinaryVolume:
    """Sheet-gyroid band: solid where |F - c| <= tau."""
    tau = spec.band_halfwidth
    mask = np.abs(field.data - c) <= tau
    if not mask.any():
        raise VolumeError(f"empty solid: no voxels within |F - {c}| <= {tau}")
    return BinaryVolume(mask, field.voxel_size)


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


def check_markers(dims: IVec3, plate_voxels: int, marker_spheres) -> None:
    """Raise VolumeError unless the plate and each (x, y, z, radius) sphere centre
    fit in the grid and each radius is at least 0."""
    nx, ny, nz = dims
    if not 0 <= plate_voxels <= nz:
        raise VolumeError(f"plate thickness {plate_voxels} outside [0, {nz}]")
    for cx, cy, cz, r in marker_spheres:
        if not (0 <= cx < nx and 0 <= cy < ny and 0 <= cz < nz):
            raise VolumeError(f"sphere centre ({cx}, {cy}, {cz}) outside dims {dims}")
        if r < 0:
            raise VolumeError(f"sphere radius {r} is negative")


def synth_displacement(dims: IVec3, spec: DeformSpec, seed: int) -> DisplacementField:
    """u(x) = (shrink - 1) * (x - centre) + s(x), with s smoothed seeded noise
    rescaled so max |s| equals warp_amplitude. Deterministic given the seed.

    Each channel of the noise is its own float64 array, drawn by its own
    standard_normal call (the values of one draw of all three) and smoothed
    in place by its own 3-D Gaussian filter, the three through parallel_map.
    A filter never mixes channels, and each pass filters a line from a copy
    of it, so the field is bit for bit the one 4-D filter with sigma
    (0, s, s, s) into a new array would give. Once the global extreme is
    known, each channel is finished, cast to float32 and freed before the
    next, so the float64 noise is never held beside the whole float32 field."""
    from scipy.ndimage import gaussian_filter

    nx, ny, nz = (int(d) for d in dims)
    if spec.warp_amplitude > 0:
        rng = np.random.default_rng(seed)
        s = [rng.standard_normal((nz, ny, nx)) for _ in range(3)]
        parallel_map(lambda ch: gaussian_filter(ch, spec.warp_smoothness, output=ch), s)
        for ch in s:
            ch -= ch.mean()  # finite-sample mean would otherwise be amplified by the rescale
        scale = spec.warp_amplitude / max(max(ch.max(), -ch.min()) for ch in s)
        for ch in s:
            ch *= scale
    else:
        s = [np.zeros((nz, ny, nx)) for _ in range(3)]
    a = spec.shrink_factor - 1.0
    ramps = (
        (np.arange(nx, dtype=np.float64) - (nx - 1) / 2.0)[None, None, :],
        (np.arange(ny, dtype=np.float64) - (ny - 1) / 2.0)[None, :, None],
        (np.arange(nz, dtype=np.float64) - (nz - 1) / 2.0)[:, None, None],
    )
    u = []
    for ramp in ramps:
        ch = s.pop(0)
        ch += a * ramp
        u.append(ch.astype(np.float32))
        del ch  # its float64 dies before the next channel's cast, and before the stack
    return DisplacementField(np.stack(u))


def leveled_grayscale(mask: BinaryVolume, deg: DegradeSpec) -> ScalarVolume:
    """Intensity image of a mask: bg/fg levels plus PSF blur, no noise."""
    g = np.where(mask.mask, deg.fg_level, deg.bg_level).astype(np.float32)
    if deg.psf_sigma > 0:
        from scipy.ndimage import gaussian_filter

        g = gaussian_filter(g, deg.psf_sigma)
    return ScalarVolume(g, mask.voxel_size)


def _pick_voxels(rng: np.random.Generator, where: np.ndarray, count: int) -> np.ndarray:
    """Up to `count` distinct flat indices of the true voxels of `where`, drawn
    without replacement; the index list of all of them dies on return."""
    idx = np.flatnonzero(where)
    return rng.choice(idx, size=min(count, idx.size), replace=False) if idx.size else idx


def degrade_to_xct(
    spec_tpms: TpmsSpec,
    c: float,
    spec_def: DeformSpec,
    spec_deg: DegradeSpec,
    seed: int,
    markers: np.ndarray,
) -> tuple[ScalarVolume, DisplacementField]:
    """Simulate a scan of the as-built part from the nominal implicit field,
    gyroid_field on spec_tpms's grid.

    Defects are applied before the geometric deformation so they ride along
    with the material. `markers` (base plate, marker spheres) is OR-ed into
    the solid mask right after solidification, as it is into the nominal
    mask. The degradations draw from `seed + 1`, the deformation from `seed`.
    Returns (scan volume, ground-truth field); warping the scan by the field
    recovers the nominal grayscale.

    The float32 scan is warped by the float32 inverse field with float64
    arithmetic, one block of the grid at a time, each block cast to float32 as
    it is made: the bits of warping the scan's float64 copy into a float64
    volume and casting that, without either float64 volume.
    """
    from scipy.ndimage import binary_erosion, gaussian_filter

    dims = spec_tpms.grid_dims()
    voxel_size = (spec_tpms.voxel_size,) * 3
    gt = synth_displacement(dims, spec_def, seed)  # first, while the least else is held
    rng = np.random.default_rng(seed + 1)
    f = gyroid_field(dims, spec_tpms.voxel_size, spec_tpms.cell_size).data.astype(np.float64)

    if spec_deg.roughness_amplitude > 0:
        r = rng.standard_normal(f.shape)
        gaussian_filter(r, spec_deg.roughness_smoothness, output=r)
        r *= spec_deg.roughness_amplitude / max(r.max(), -r.min())
        f += r
        del r

    if spec_deg.pore_close_count > 0:
        outside = np.empty(f.shape, bool)
        for b in blocks(f.shape):
            outside[b] = np.abs(f[b] - c) > spec_tpms.band_halfwidth
        for flat in _pick_voxels(rng, outside, spec_deg.pore_close_count):
            z, y, x = np.unravel_index(flat, f.shape)
            _stamp_sphere(f, (x, y, z), spec_deg.pore_close_radius, c)
        del outside

    f = f.astype(np.float32)  # frees the float64 field
    mask = tpms_solid(ScalarVolume(f, voxel_size), spec_tpms, c).mask
    del f  # the scan carries on from the solid mask alone
    mask |= markers

    if spec_deg.breakage_count > 0:
        surface = mask & ~binary_erosion(mask, structure=CROSS6, border_value=1)
        for flat in _pick_voxels(rng, surface, spec_deg.breakage_count):
            z, y, x = np.unravel_index(flat, mask.shape)
            _stamp_sphere(mask, (x, y, z), spec_deg.breakage_radius, False)

    gray = leveled_grayscale(BinaryVolume(mask, voxel_size), spec_deg).data
    del mask
    if spec_deg.noise_sigma > 0:
        gray += rng.normal(0.0, spec_deg.noise_sigma, gray.shape).astype(np.float32)

    g_inv = invert_field(gt).data
    xct = np.empty(gray.shape, np.float32)
    zz, yy, xx = grid_coords(gray.shape)
    for b in blocks(gray.shape):
        p = (xx[b] + g_inv[0][b], yy[b] + g_inv[1][b], zz[b] + g_inv[2][b])
        xct[b] = trilinear_gather(gray, *p, dtype=np.float64)
    return ScalarVolume(xct, voxel_size), gt


def synthesize_sample(
    spec: TpmsSpec,
    c: float,
    deform: DeformSpec,
    degrade: DegradeSpec,
    seed: int,
    plate_voxels: int = 0,
    marker_spheres=(),
) -> tuple[BinaryVolume, ScalarVolume, DisplacementField]:
    """One phantom at level-set offset `c`: (nominal mask, scan, ground-truth field).

    The markers are the bottom `plate_voxels` z-slices (the base plate) and
    the balls of `marker_spheres`, each (x, y, z, radius) in voxels. Both only
    set voxels solid, so one mask of them is OR-ed into the nominal mask and,
    through degrade_to_xct, into the scan's. The nominal implicit field is
    dropped once its mask is taken; degrade_to_xct makes its own.
    """
    dims = spec.grid_dims()
    check_markers(dims, plate_voxels, marker_spheres)
    nx, ny, nz = dims
    markers = np.zeros((nz, ny, nx), dtype=bool)
    markers[:plate_voxels] = True
    for cx, cy, cz, r in marker_spheres:
        _stamp_sphere(markers, (cx, cy, cz), r, True)
    nominal = tpms_solid(gyroid_field(dims, spec.voxel_size, spec.cell_size), spec, c)
    nominal.mask[markers] = True
    scan, gt = degrade_to_xct(spec, c, deform, degrade, seed, markers)
    return nominal, scan, gt
