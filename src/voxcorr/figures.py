"""Slice-image exports: overlays, difference maps and displacement magnitude.

Images are written as binary PPM (P6) / PGM (P5) with maxval 255. For each
volume the three central orthogonal slices are exported; image dimensions
equal the slice dimensions (XZ: rows z, cols x; YZ: rows z, cols y; XY:
rows y, cols x). Masks come from the caller, which binarizes each volume
once for both the metrics and the figures.
"""
from __future__ import annotations

from pathlib import Path

import numpy as np

from .metrics import BDM_OUTSIDE, BdmResult, squared_norm
from .volume import BinaryVolume, DisplacementField, ScalarVolume, VolumeError

GREEN = np.array([0, 200, 0], dtype=np.float64)
BDM_COLORS = {
    -1: np.array([0, 0, 255], dtype=np.uint8),
    0: np.array([255, 255, 255], dtype=np.uint8),
    1: np.array([255, 0, 0], dtype=np.uint8),
}
BDM_OUTSIDE_COLOR = np.array([220, 220, 220], dtype=np.uint8)


def write_pgm(path, img: np.ndarray) -> None:
    if img.ndim != 2 or img.dtype != np.uint8:
        raise VolumeError("PGM output requires a 2D uint8 image")
    h, w = img.shape
    Path(path).write_bytes(f"P5\n{w} {h}\n255\n".encode("ascii") + img.tobytes())


def write_ppm(path, img: np.ndarray) -> None:
    if img.ndim != 3 or img.shape[2] != 3 or img.dtype != np.uint8:
        raise VolumeError("PPM output requires an [h, w, 3] uint8 image")
    h, w, _ = img.shape
    Path(path).write_bytes(f"P6\n{w} {h}\n255\n".encode("ascii") + img.tobytes())


def central_slices(data: np.ndarray) -> dict[str, np.ndarray]:
    """Central XZ, YZ, XY planes of a [z, y, x] grid."""
    nz, ny, nx = data.shape
    return {
        "xz": data[:, ny // 2, :],
        "yz": data[:, :, nx // 2],
        "xy": data[nz // 2, :, :],
    }


def _to_gray255(slice2d: np.ndarray, lo: float, hi: float) -> np.ndarray:
    if hi > lo:
        g = (slice2d.astype(np.float64) - lo) / (hi - lo)
    else:
        g = np.zeros_like(slice2d, dtype=np.float64)
    return np.clip(g * 255.0, 0, 255)


def export_overlay_slices(
    fixed_bin: BinaryVolume, scan: ScalarVolume, scan_bin: BinaryVolume, out_dir, prefix: str = "overlay"
) -> list[str]:
    """Nominal mask in green over the scan grayscale; where the scan mask
    overlaps it, blended 50/50."""
    if not (fixed_bin.dims == scan.dims == scan_bin.dims):
        raise VolumeError(f"dims mismatch: {fixed_bin.dims}, {scan.dims}, {scan_bin.dims}")
    lo, hi = float(scan.data.min()), float(scan.data.max())
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    f_slices = central_slices(fixed_bin.mask)
    s_slices = central_slices(scan_bin.mask)
    g_slices = central_slices(scan.data)
    for plane in ("xz", "yz", "xy"):
        gray = _to_gray255(g_slices[plane], lo, hi)
        img = np.repeat(gray[:, :, None], 3, axis=2)
        cad_only = f_slices[plane] & ~s_slices[plane]
        overlap = f_slices[plane] & s_slices[plane]
        img[cad_only] = GREEN
        img[overlap] = 0.5 * img[overlap] + 0.5 * GREEN
        p = out_dir / f"{prefix}_{plane}.ppm"
        write_ppm(p, np.clip(img, 0, 255).astype(np.uint8))
        paths.append(str(p))
    return paths


def export_bdm_slices(result: BdmResult, out_dir, prefix: str = "bdm") -> list[str]:
    """Blue = material missing in the scan, white = match, red = excess."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for plane, sl in central_slices(result.map).items():
        img = np.empty(sl.shape + (3,), dtype=np.uint8)
        img[:] = BDM_OUTSIDE_COLOR
        for value, color in BDM_COLORS.items():
            img[sl == value] = color
        img[sl == BDM_OUTSIDE] = BDM_OUTSIDE_COLOR
        p = out_dir / f"{prefix}_{plane}.ppm"
        write_ppm(p, img)
        paths.append(str(p))
    return paths


def export_displacement_magnitude(
    disp: DisplacementField, mask: BinaryVolume, out_dir, prefix: str = "dispmag"
) -> list[str]:
    """Per-voxel field magnitude, min-max scaled to 8 bits, background black.

    A constant nonzero magnitude (degenerate scaling) renders as mid-gray.
    """
    if disp.dims != mask.dims:
        raise VolumeError(f"dims mismatch: {disp.dims} vs {mask.dims}")
    mag = squared_norm(disp.data)
    np.sqrt(mag, out=mag)
    lo, hi = float(mag.min()), float(mag.max())
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    inside = central_slices(mask.mask)
    for plane, sl in central_slices(mag).items():  # only the slices are scaled
        if hi > lo:
            scaled = (sl - lo) / (hi - lo) * 255.0
        elif hi == 0.0:
            scaled = np.zeros_like(sl)
        else:
            scaled = np.full_like(sl, 128.0)
        scaled[~inside[plane]] = 0.0
        p = out_dir / f"{prefix}_{plane}.pgm"
        write_pgm(p, np.clip(scaled, 0, 255).astype(np.uint8))
        paths.append(str(p))
    return paths
