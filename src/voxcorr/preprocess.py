"""Scan cleaning and dataset assembly.

The cleaning chain isolates the fabricated part from a raw grayscale scan:
global Otsu binarization, erosion to detach satellite debris, largest
connected component, dilation to undo the erosion bias, opening, and filling
of enclosed voids. Dataset building then aligns each cleaned scan to its
nominal volume, shapes both to a common grid and normalizes intensities.

This module owns the dataset layout. A raw sample is raw/<id>/ with
sample.json (its c_param) and the volumes that sample_paths names; a sample
has ground truth exactly when its gt_disp.vvol exists. build_dataset writes
the manifest it is given, of ids, c values and splits only, and beside it
<id>/ alike plus preprocess.json: readers join the paths onto the manifest's
folder.
"""
from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .jsonable import decode, from_json, read_json, write_json
from .volume import (
    BinaryVolume, DisplacementField, IVec3, ScalarVolume, VolumeError, blocks, crop_or_pad, minmax_normalize,
    shift_into,
)
from .vvol import vvol_read, vvol_write

CROSS6 = np.array([[[0, 0, 0], [0, 1, 0], [0, 0, 0]],
                   [[0, 1, 0], [1, 1, 1], [0, 1, 0]],
                   [[0, 0, 0], [0, 1, 0], [0, 0, 0]]], dtype=bool)   # faces only
CUBE26 = np.ones((3, 3, 3), dtype=bool)

_STRUCTURES = {6: CROSS6, 26: CUBE26}

# the smallest grid, in voxels per axis, that preprocessing carries through: at
# 2 and 3 the cleaning's erosion can leave no solid voxel, or the centre crop of
# a nominal volume no void one; every desk sample at 4 passed (seeds 0-5)
MIN_GRID = 4


@dataclass(frozen=True)
class CleanSpec:
    erosion_radius: int = 1
    opening_radius: int = 1
    connectivity: int = 6

    def __post_init__(self):
        if self.erosion_radius < 0 or self.opening_radius < 0:
            raise VolumeError("morphology radii must be >= 0")
        if self.connectivity not in (6, 26):
            raise VolumeError(f"connectivity must be 6 or 26, got {self.connectivity}")


def otsu_threshold(vol: ScalarVolume, bins: int = 256) -> tuple[float, BinaryVolume]:
    """Global Otsu threshold over a [min, max] histogram.

    Candidate thresholds are the interior bin edges; the one maximizing the
    between-class variance wins, ties going to the lower edge. Foreground is
    strictly above the returned threshold (bins are right-closed, so the split
    is exact).
    """
    v = vol.data.astype(np.float64, copy=False).ravel()
    lo, hi = float(v.min()), float(v.max())
    if hi == lo:
        raise VolumeError("cannot threshold a constant volume")
    edges = np.linspace(lo, hi, bins + 1)
    idx = _bin_indices(v, edges)
    counts = np.bincount(idx, minlength=bins).astype(np.float64)
    sums = np.bincount(idx, weights=v, minlength=bins)

    w0 = np.cumsum(counts)[:-1]
    s0 = np.cumsum(sums)[:-1]
    w1 = v.size - w0
    s1 = sums.sum() - s0
    valid = (w0 > 0) & (w1 > 0)
    var_b = np.full(bins - 1, -np.inf)
    mu_diff = np.where(valid, s0 / np.maximum(w0, 1) - s1 / np.maximum(w1, 1), 0.0)
    var_b[valid] = (w0 * w1)[valid] * mu_diff[valid] ** 2
    best = int(np.argmax(var_b))
    thr = float(edges[best + 1])
    return thr, BinaryVolume(vol.data > thr, vol.voxel_size)


def _bin_indices(v: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """clip(searchsorted(edges, v, "left") - 1, 0, bins - 1): bin j holds
    (edges[j], edges[j + 1]], and bin 0 also holds edges[0].

    Each value's bin is computed by arithmetic and checked against the two
    edges it must lie between. The values that fail the check, next to an
    edge or all of them when the edges are only ulps apart, are looked up by
    searchsorted instead, so the result is exact either way. A value's bin
    depends on that value alone, so the values go through one block
    (volume.blocks) at a time, and only the index array is as long as v.
    """
    bins = edges.size - 1
    lo, hi = edges[0], edges[-1]
    idx = np.empty(v.size, np.intp)
    for b in blocks(v.shape):
        w = v[b]  # (w - lo) / (hi - lo) stays in [0, 1]
        i = np.minimum(((w - lo) / (hi - lo) * bins).astype(np.intp), bins - 1)
        miss = (w > edges[i + 1]) | ((w <= edges[i]) & (i > 0))
        if miss.any():
            i[miss] = np.clip(np.searchsorted(edges, w[miss], side="left") - 1, 0, bins - 1)
        idx[b] = i
    return idx


def morph_op(bin_vol: BinaryVolume, op: str, radius: int, connectivity: int = 6) -> BinaryVolume:
    """Erode/dilate/open with an r-ball structuring element (Manhattan metric
    for 6-connectivity, Chebyshev for 26). Radius 0 is the identity.

    The domain border is neutral: erosion treats the outside as solid and
    dilation as empty, so open(X) <= X holds on the full grid.
    """
    if radius < 0:
        raise VolumeError("radius must be >= 0")
    if connectivity not in _STRUCTURES:
        raise VolumeError(f"connectivity must be 6 or 26, got {connectivity}")
    if op not in ("erode", "dilate", "open"):
        raise VolumeError(f"unknown morphology op {op!r}")
    if radius == 0:
        return BinaryVolume(bin_vol.mask.copy(), bin_vol.voxel_size)
    from scipy import ndimage

    st = _STRUCTURES[connectivity]
    m = bin_vol.mask

    def erode(x):
        return ndimage.binary_erosion(x, structure=st, iterations=radius, border_value=1)

    def dilate(x):
        return ndimage.binary_dilation(x, structure=st, iterations=radius, border_value=0)

    if op == "erode":
        out = erode(m)
    elif op == "dilate":
        out = dilate(m)
    else:
        out = dilate(erode(m))
    return BinaryVolume(out, bin_vol.voxel_size)


def largest_component(bin_vol: BinaryVolume, connectivity: int = 6) -> BinaryVolume:
    """Keep only the largest connected component; ties go to the component
    containing the smallest linear index."""
    if connectivity not in _STRUCTURES:
        raise VolumeError(f"connectivity must be 6 or 26, got {connectivity}")
    if not bin_vol.mask.any():
        raise VolumeError("empty mask has no components")
    from scipy import ndimage

    labels, n = ndimage.label(bin_vol.mask, structure=_STRUCTURES[connectivity])
    sizes = np.bincount(labels.ravel())
    sizes[0] = 0
    top = sizes.max()
    candidates = np.flatnonzero(sizes == top)
    if len(candidates) > 1:
        flat = labels.ravel()
        winner = min(candidates, key=lambda lab: int(np.argmax(flat == lab)))
    else:
        winner = candidates[0]
    return BinaryVolume(labels == winner, bin_vol.voxel_size)


def fill_enclosed_voids(bin_vol: BinaryVolume) -> BinaryVolume:
    """Fill background regions not 6-connected to any volume face."""
    from scipy import ndimage

    return BinaryVolume(ndimage.binary_fill_holes(bin_vol.mask, structure=CROSS6), bin_vol.voxel_size)


def clean_xct(vol: ScalarVolume, spec: CleanSpec) -> tuple[ScalarVolume, BinaryVolume]:
    """Full cleaning chain; returns the masked grayscale (background set to the
    volume minimum) and the cleaned mask."""
    _, raw = otsu_threshold(vol)
    m = morph_op(raw, "erode", spec.erosion_radius, spec.connectivity)
    m = largest_component(m, spec.connectivity)
    m = morph_op(m, "dilate", spec.erosion_radius, spec.connectivity)
    m = morph_op(m, "open", spec.opening_radius, spec.connectivity)
    m = fill_enclosed_voids(m)
    lo = vol.data.min()
    gray = np.where(m.mask, vol.data, lo)
    return ScalarVolume(gray.astype(vol.data.dtype, copy=False), vol.voxel_size), m


def foreground_centroid(vol: ScalarVolume) -> np.ndarray:
    """Otsu-foreground centroid as (x, y, z)."""
    _, b = otsu_threshold(vol)
    if not b.mask.any():
        raise VolumeError("empty foreground; cannot compute centroid")
    zz, yy, xx = np.nonzero(b.mask)
    return np.array([xx.mean(), yy.mean(), zz.mean()])


def coarse_align(moving: ScalarVolume, fixed: ScalarVolume) -> tuple[ScalarVolume, IVec3]:
    """Integer translation bringing the moving foreground centroid onto the
    fixed one; fill is the moving minimum. Returns (aligned, shift)."""
    shift = np.rint(foreground_centroid(fixed) - foreground_centroid(moving)).astype(int)
    aligned = shift_into(moving, moving.dims, shift, float(moving.data.min()))
    return aligned, (int(shift[0]), int(shift[1]), int(shift[2]))


def sample_paths(root, sid: str) -> tuple[Path, Path, Path]:
    """(cad, xct, gt_disp) volume paths of sample `sid` under a raw or dataset folder."""
    d = Path(root) / sid
    return d / "cad.vvol", d / "xct.vvol", d / "gt_disp.vvol"


@dataclass
class SampleEntry:
    id: str
    c_param: float
    split: str


@dataclass
class DatasetManifest:
    samples: list[SampleEntry]
    target_dims: IVec3
    created_at: str = ""

    def __post_init__(self):
        ids = [s.id for s in self.samples]
        if len(set(ids)) != len(ids):
            raise VolumeError("sample ids must be unique")

    def split(self, name: str) -> list[SampleEntry]:
        return [s for s in self.samples if s.split == name]

    @classmethod
    def load(cls, path) -> "DatasetManifest":
        return from_json(cls, read_json(path), where=f"{path}: {cls.__name__}")


def assign_splits(c_values: list[float]) -> dict[float, str]:
    """Split assignment over a level-set sweep, 60/20/20 by position.

    The seven-sample sweep 0 .. -0.6 gets the canonical assignment (train:
    0, -0.2, -0.3, -0.5; val: -0.1, -0.4; test: -0.6). Other sweeps follow the
    same positional pattern on the sorted values, so for three or more
    samples each split is non-empty: the first trains, the second validates
    and the last tests.
    """
    ordered = sorted(c_values, reverse=True)
    n = len(ordered)
    out: dict[float, str] = {}
    if n == 1:
        return {ordered[0]: "test"}
    if n == 2:
        return {ordered[0]: "train", ordered[1]: "val"}
    for i, c in enumerate(ordered):
        if i == n - 1:
            out[c] = "test"
        elif (i % 3) == 1:
            out[c] = "val"
        else:
            out[c] = "train"
    return out


def build_dataset(
    raw_dir,
    manifest_path,
    target_dims: IVec3 | None = None,
    clean_spec: CleanSpec = CleanSpec(),
) -> DatasetManifest:
    """Preprocess the raw samples under raw_dir into a training-ready dataset.

    Every raw_dir/<id>/sample.json names a sample; its c_param picks the split
    (assign_splits). Per sample: clean the scan, align it to the nominal volume
    by foreground centroid, shape both to target_dims (default: the first
    sample's nominal grid), min-max normalize, and write <id>/ beside
    manifest_path with a sidecar recording the cleaning parameters and
    alignment shift. The ground-truth field, when present, is shifted and
    cropped consistently. Deterministic given identical inputs.
    """
    raw_dir, manifest_path = Path(raw_dir), Path(manifest_path)
    out_dir = manifest_path.parent
    cs = {}  # id -> c_param
    for sidecar in raw_dir.glob("*/sample.json"):
        cs[sidecar.parent.name] = decode(float, read_json(sidecar).get("c_param"), f"{sidecar}: c_param")
    if not cs:
        raise VolumeError(f"no samples under {raw_dir}")
    by_c = assign_splits(list(cs.values()))
    out_dir.mkdir(parents=True, exist_ok=True)
    entries = []
    for sid in sorted(cs):
        try:
            target_dims = _preprocess_sample(raw_dir, out_dir, sid, cs[sid], target_dims, clean_spec)
        except (VolumeError, OSError) as e:
            raise VolumeError(f"preprocessing failed for sample {sid!r}: {e}") from e
        entries.append(SampleEntry(id=sid, c_param=float(cs[sid]), split=by_c[cs[sid]]))
    manifest = DatasetManifest(
        samples=entries,
        target_dims=tuple(int(t) for t in target_dims),
        created_at=datetime.now(timezone.utc).isoformat(),
    )
    write_json(manifest_path, manifest)
    return manifest


def _preprocess_sample(
    raw_dir: Path, out_dir: Path, sid: str, c: float, target_dims: IVec3 | None, clean_spec: CleanSpec
) -> IVec3:
    """Write sample `sid`'s dataset folder (see build_dataset); returns the
    target dims it used, its nominal grid when none is given. Its volumes die
    on return, before the next sample's are read."""
    cad_in, xct_in, gt_in = sample_paths(raw_dir, sid)
    cad_out, xct_out, gt_out = sample_paths(out_dir, sid)
    cad = vvol_read(cad_in)
    xct = vvol_read(xct_in)
    if not isinstance(cad, ScalarVolume) or not isinstance(xct, ScalarVolume):
        raise VolumeError("cad and xct inputs must be scalar volumes")
    target_dims = target_dims or cad.dims
    xct_gray, _ = clean_xct(xct, clean_spec)
    aligned, shift = coarse_align(xct_gray, cad)
    cad_out.parent.mkdir(exist_ok=True)
    vvol_write(cad_out, minmax_normalize(crop_or_pad(cad, target_dims, float(cad.data.min()))))
    vvol_write(xct_out, minmax_normalize(crop_or_pad(aligned, target_dims, float(aligned.data.min()))))
    if gt_in.exists():
        # the field lives on the fixed grid, which alignment does not
        # move; shifting the scan by s changes the field values by +s
        gt = vvol_read(gt_in)
        if not isinstance(gt, DisplacementField):
            raise VolumeError("gt_disp input must be a displacement field")
        gt.data[...] += np.array(shift, dtype=np.float32)[:, None, None, None]
        vvol_write(gt_out, crop_or_pad(gt, target_dims))
    sidecar = {
        "id": sid,
        "c_param": c,
        "clean": clean_spec,
        "coarse_shift": list(shift),
        "target_dims": list(target_dims),
    }
    write_json(cad_out.parent / "preprocess.json", sidecar)
    return target_dims
