"""Node-based local-correlation DVC baseline.

Displacement is estimated on a regular lattice of correlation windows: an
exhaustive integer search maximizes global NCC between the fixed window and
the shifted moving window, refined per axis by a quadratic fit through the
three scores around the integer peak. The NCC of every candidate offset comes
from the moving block that the search covers, with no candidate window copied
(Lewis, "Fast Normalized Cross-Correlation", 1995): the cross term with the
mean-free fixed window is one real-FFT correlation over the block, and each
window's sum and sum of squares come from running sums along each axis. A
two-level image pyramid seeds the finer search from the coarse result.
Low-correlation nodes are inpainted from their valid lattice neighbours and
the dense field is the trilinear interpolation of the lattice, held constant
outside its hull.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .jsonable import Jsonable
from .volume import DisplacementField, ScalarVolume, VolumeError, downsample2, trilinear_gather, window_sums, z_chunks


@dataclass(frozen=True)
class DvcConfig:
    node_spacing: int = 16
    window_halfsize: int = 10
    search_radius: int = 4
    pyramid_levels: int = 2
    min_correlation: float = 0.3

    def __post_init__(self):
        if self.node_spacing < 2:
            raise VolumeError("node_spacing must be >= 2")
        if self.pyramid_levels < 1:
            raise VolumeError("pyramid_levels must be >= 1")
        if self.window_halfsize < 1 or self.search_radius < 1:
            raise VolumeError("window_halfsize and search_radius must be >= 1")
        # an invalid node reports a peak of 0.0, which must never pass as valid
        if not 0.0 < self.min_correlation <= 1.0:
            raise VolumeError(f"min_correlation must be in (0, 1], got {self.min_correlation}")


@dataclass
class NodeField(Jsonable):
    lattice_dims: tuple[int, int, int]   # nodes per axis (x, y, z)
    positions: np.ndarray                # [n, 3] as (x, y, z), z-major order
    displacements: np.ndarray            # [n, 3] voxels
    correlations: np.ndarray             # [n]
    valid: np.ndarray                    # [n] bool


def _axis_nodes(n: int, margin: int, spacing: int) -> list[int]:
    lo, hi = margin, n - 1 - margin
    if lo > hi:
        raise VolumeError(f"axis of {n} voxels too small for margin {margin}")
    pos = list(range(lo, hi + 1, spacing))
    if len(pos) == 1:
        return [(lo + hi) // 2]
    return pos


def build_node_grid(dims, cfg: DvcConfig) -> tuple[list[int], list[int], list[int]]:
    """Per-axis node coordinates with a window + search margin from each face."""
    nx, ny, nz = dims
    margin = cfg.window_halfsize + cfg.search_radius
    return (
        _axis_nodes(nx, margin, cfg.node_spacing),
        _axis_nodes(ny, margin, cfg.node_spacing),
        _axis_nodes(nz, margin, cfg.node_spacing),
    )


@functools.cache
def next_fast_len(n: int) -> int:
    """The smallest 5-smooth number (2^a 3^b 5^c) >= n, a length the real FFT
    transforms fast; scipy.fft.next_fast_len(n, real=True) gives the same."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # p35 times the smallest power of 2 that takes it to n or past
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _quadratic_refine(scores: np.ndarray, peak: tuple[int, int, int]) -> np.ndarray:
    """Per-axis sub-voxel offset from a 3-point parabola, clamped to +-0.5."""
    delta = np.zeros(3)
    for axis in range(3):
        i = peak[axis]
        if i == 0 or i == scores.shape[axis] - 1:
            continue
        sl = list(peak)
        sl[axis] = slice(i - 1, i + 2)
        s_lo, s_mid, s_hi = scores[tuple(sl)]
        if not (np.isfinite(s_lo) and np.isfinite(s_hi)):  # a flat neighbour window scores -inf
            continue
        denom = s_lo - 2.0 * s_mid + s_hi
        if denom >= 0:  # not a concave peak
            continue
        delta[axis] = float(np.clip(0.5 * (s_lo - s_hi) / denom, -0.5, 0.5))
    # scores is indexed [tz, ty, tx]; report (x, y, z)
    return delta[::-1]


def correlate_node(
    moving: np.ndarray,
    fixed: np.ndarray,
    center,
    cfg: DvcConfig,
    halfsize: int | None = None,
    base=(0, 0, 0),
) -> tuple[np.ndarray, float]:
    """Best (x, y, z) offset of the moving window against the fixed window at
    `center`, searched over base + [-r, r]^3 (clipped to stay in bounds).

    Scores every offset t at once on the moving block the search covers,
    centred on its mean: the cross term sum_i block[t + i] * fc[i] against the
    mean-free fixed window fc is a circular FFT correlation on a grid at least
    the block's size (valid offsets never wrap), and the window sums of m and
    m^2 behind var_m = smm - sm^2 / w^3 are running sums along each axis.
    Offsets whose moving window has zero variance score -inf.

    Returns (offset, peak NCC); a zero-variance or unsearchable window is
    flagged invalid as (zeros, 0.0).
    """
    h = cfg.window_halfsize if halfsize is None else int(halfsize)
    r = cfg.search_radius
    w = 2 * h + 1
    cx, cy, cz = (int(c) for c in center)
    nz, ny, nx = fixed.shape
    if not (h <= cx < nx - h and h <= cy < ny - h and h <= cz < nz - h):
        return np.zeros(3), 0.0
    f = fixed[cz - h : cz + h + 1, cy - h : cy + h + 1, cx - h : cx + h + 1].astype(np.float64)
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
    ].astype(np.float64)
    # centred, an intensity offset costs no digits in the FFT or in var_m; the
    # shift's share of the cross term is added back, as the rounded fc need not sum to 0
    shift = block.mean()
    block -= shift
    grid = [next_fast_len(n) for n in block.shape]
    spec = np.fft.rfftn(block, grid, axes=(0, 1, 2))
    spec *= np.conj(np.fft.rfftn(fc, grid, axes=(0, 1, 2)))
    cross = np.fft.irfftn(spec, grid, axes=(0, 1, 2))[: tz1 - tz0 + 1, : ty1 - ty0 + 1, : tx1 - tx0 + 1]
    cross += shift * fc.sum()
    sm, smm = window_sums(np.stack([block, block * block]), w)
    var_m = smm - sm * sm / w ** 3
    scores = cross / np.sqrt(var_f * np.maximum(var_m, 1e-12))
    scores[var_m <= 1e-12] = -np.inf
    if not np.isfinite(scores).any():
        return np.zeros(3), 0.0
    flat_peak = int(np.argmax(scores))
    pk = np.unravel_index(flat_peak, scores.shape)
    peak_score = float(min(scores[pk], 1.0))
    if peak_score >= 1.0 - 1e-9:
        delta = np.zeros(3)  # machine-perfect match is integral; the parabola only adds bias
    else:
        delta = _quadratic_refine(scores, pk)
    offset = np.array([tx0 + pk[2], ty0 + pk[1], tz0 + pk[0]], dtype=np.float64) + delta
    return offset, peak_score


def _inpaint_invalid(disp: np.ndarray, valid: np.ndarray) -> np.ndarray:
    """Fill invalid lattice nodes with the mean of valid 6-neighbours, iterated."""
    if not valid.any():
        raise VolumeError("all correlation nodes invalid")
    out = disp.copy()
    filled = valid.copy()
    nnz, nny, nnx = valid.shape
    while not filled.all():
        progress = False
        targets = np.argwhere(~filled)
        for z, y, x in targets:
            acc, cnt = np.zeros(3), 0
            for dz, dy, dx in ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)):
                zz, yy, xx = z + dz, y + dy, x + dx
                if 0 <= zz < nnz and 0 <= yy < nny and 0 <= xx < nnx and filled[zz, yy, xx]:
                    acc += out[zz, yy, xx]
                    cnt += 1
            if cnt:
                out[z, y, x] = acc / cnt
                filled[z, y, x] = True
                progress = True
        if not progress:
            break
    return out


def multiscale_dvc(
    moving: ScalarVolume, fixed: ScalarVolume, cfg: DvcConfig = DvcConfig()
) -> tuple[DisplacementField, NodeField]:
    """Coarse-to-fine node correlation producing a dense displacement field."""
    if moving.dims != fixed.dims:
        raise VolumeError(f"dims mismatch: {moving.dims} vs {fixed.dims}")
    xs, ys, zs = build_node_grid(moving.dims, cfg)
    nnx, nny, nnz = len(xs), len(ys), len(zs)

    # level 0 is the input itself, as correlate_node casts its windows to float64;
    # each coarser level is averaged from a float64 copy
    pyr_m, pyr_f = [moving.data], [fixed.data]
    for _ in range(cfg.pyramid_levels - 1):
        pyr_m.append(downsample2(ScalarVolume(pyr_m[-1].astype(np.float64, copy=False))).data)
        pyr_f.append(downsample2(ScalarVolume(pyr_f[-1].astype(np.float64, copy=False))).data)

    disp = np.zeros((nnz, nny, nnx, 3))
    corr = np.zeros((nnz, nny, nnx))
    valid = np.zeros((nnz, nny, nnx), dtype=bool)
    for level in reversed(range(cfg.pyramid_levels)):
        scale = 2 ** level
        h_l = max(2, cfg.window_halfsize // scale)
        for iz, pz in enumerate(zs):
            for iy, py in enumerate(ys):
                for ix, px in enumerate(xs):
                    center = (px // scale, py // scale, pz // scale)
                    base = disp[iz, iy, ix] / scale
                    off, peak = correlate_node(
                        pyr_m[level], pyr_f[level], center, cfg, halfsize=h_l, base=base
                    )
                    ok = peak >= cfg.min_correlation
                    if ok:
                        disp[iz, iy, ix] = off * scale
                    corr[iz, iy, ix] = peak
                    valid[iz, iy, ix] = ok
        disp = _inpaint_invalid(disp, valid)

    # dense field: trilinear over the node lattice, edge-clamped outside
    nx, ny, nz = moving.dims
    sp_x = xs[1] - xs[0] if nnx > 1 else 1
    sp_y = ys[1] - ys[0] if nny > 1 else 1
    sp_z = zs[1] - zs[0] if nnz > 1 else 1
    gx = (np.arange(nx) - xs[0]) / sp_x
    gy = (np.arange(ny) - ys[0]) / sp_y
    gz = (np.arange(nz) - zs[0]) / sp_z
    lattice = np.moveaxis(disp, -1, 0)
    dense = np.empty((3, nz, ny, nx), np.float32)
    for z in z_chunks(dense.shape[1:]):  # each chunk cast to float32 as it is made
        dense[:, z] = trilinear_gather(lattice, gx, gy[:, None], gz[z, None, None])
    field = DisplacementField(dense, moving.voxel_size)
    nodes = NodeField(
        lattice_dims=(nnx, nny, nnz),
        positions=np.array([(x, y, z) for z in zs for y in ys for x in xs], dtype=np.int64),
        displacements=disp.reshape(-1, 3),
        correlations=corr.reshape(-1),
        valid=valid.reshape(-1),
    )
    return field, nodes
