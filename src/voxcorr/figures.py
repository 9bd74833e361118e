"""Slice-image exports: overlays, difference maps and displacement magnitude.

Images are written by one binary PNM writer with maxval 255: PGM (P5) for a
2-D gray image, PPM (P6) for an [h, w, 3] colour one. For each volume the
three central orthogonal slices are exported; image dimensions equal the
slice dimensions (XZ: rows z, cols x; YZ: rows z, cols y; XY: rows y,
cols x). A BDM slice is coloured through one 256-entry palette indexed by the
map's uint8 bits. Masks come from the caller, which binarizes each volume
once for both the metrics and the figures.
"""
from __future__ import annotations

from pathlib import Path

import numpy as np

from .metrics import squared_norm
from .volume import BinaryVolume, DisplacementField, ScalarVolume, VolumeError, blocks

GREEN = np.array([0, 200, 0], dtype=np.float64)
# BDM colours by the uint8 bits of the int8 map: blue for -1 (material missing
# in the scan), white for 0 (match), red for +1 (excess); light gray for
# BDM_OUTSIDE and any other value
_BDM_PALETTE = np.full((256, 3), 220, dtype=np.uint8)
_BDM_PALETTE[np.array([-1, 0, 1], dtype=np.int8).view(np.uint8)] = [[0, 0, 255], [255, 255, 255], [255, 0, 0]]


def write_pnm(path, img: np.ndarray) -> None:
    """Binary PGM (P5) for a 2-D uint8 image, PPM (P6) for an [h, w, 3] one."""
    if img.dtype != np.uint8 or not (img.ndim == 2 or (img.ndim == 3 and img.shape[2] == 3)):
        raise VolumeError("PNM output requires a 2-D or an [h, w, 3] uint8 image")
    h, w = img.shape[:2]
    magic = "P5" if img.ndim == 2 else "P6"
    Path(path).write_bytes(f"{magic}\n{w} {h}\n255\n".encode("ascii") + img.tobytes())


def _export(images: dict[str, np.ndarray], out_dir, prefix: str) -> list[str]:
    """Write each plane's image to out_dir as {prefix}_{plane}.pgm or .ppm."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for plane, img in images.items():
        p = out_dir / f"{prefix}_{plane}.{'pgm' if img.ndim == 2 else 'ppm'}"
        write_pnm(p, img)
        paths.append(str(p))
    return paths


def central_slices(data: np.ndarray) -> dict[str, np.ndarray]:
    """Central XZ, YZ, XY planes of a [..., z, y, x] grid; leading axes are kept."""
    nz, ny, nx = data.shape[-3:]
    return {
        "xz": data[..., :, ny // 2, :],
        "yz": data[..., :, :, nx // 2],
        "xy": data[..., nz // 2, :, :],
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
    f_slices = central_slices(fixed_bin.mask)
    s_slices = central_slices(scan_bin.mask)
    images = {}
    for plane, sl in central_slices(scan.data).items():
        img = np.repeat(_to_gray255(sl, lo, hi)[:, :, None], 3, axis=2)
        cad_only = f_slices[plane] & ~s_slices[plane]
        overlap = f_slices[plane] & s_slices[plane]
        img[cad_only] = GREEN
        img[overlap] = 0.5 * img[overlap] + 0.5 * GREEN
        images[plane] = np.clip(img, 0, 255).astype(np.uint8)
    return _export(images, out_dir, prefix)


def export_bdm_slices(bdm_map: np.ndarray, out_dir, prefix: str = "bdm") -> list[str]:
    """Blue = material missing in the scan, white = match, red = excess."""
    images = {plane: _BDM_PALETTE[sl.view(np.uint8)] for plane, sl in central_slices(bdm_map).items()}
    return _export(images, out_dir, prefix)


def export_displacement_magnitude(
    disp: DisplacementField, mask: BinaryVolume, out_dir, prefix: str = "dispmag"
) -> list[str]:
    """Per-voxel field magnitude, min-max scaled to 8 bits, background black.

    A constant nonzero magnitude (degenerate scaling) renders as mid-gray.
    The scale's bounds are the square roots of the squared magnitude's min
    and max, taken block by block (sqrt is monotonic and correctly rounded,
    so they equal the whole magnitude's min and max); only the three slices'
    magnitudes are made.
    """
    if disp.dims != mask.dims:
        raise VolumeError(f"dims mismatch: {disp.dims} vs {mask.dims}")
    lo, hi = np.inf, -np.inf
    for b in blocks(disp.data.shape[1:]):
        sq = squared_norm(disp.data[:, *b])
        lo, hi = min(lo, sq.min()), max(hi, sq.max())
    lo, hi = float(np.sqrt(lo)), float(np.sqrt(hi))
    inside = central_slices(mask.mask)
    images = {}
    for plane, sl in central_slices(disp.data).items():
        sl = np.sqrt(squared_norm(sl))
        if hi > lo:
            scaled = (sl - lo) / (hi - lo) * 255.0
        elif hi == 0.0:
            scaled = np.zeros_like(sl)
        else:
            scaled = np.full_like(sl, 128.0)
        scaled[~inside[plane]] = 0.0
        images[plane] = np.clip(scaled, 0, 255).astype(np.uint8)
    return _export(images, out_dir, prefix)
