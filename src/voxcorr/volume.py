"""Dense 3D volume containers and resampling primitives.

All grids are C-ordered numpy arrays indexed [z, y, x] (x fastest), so the
linear index of voxel (x, y, z) is ((z*ny)+y)*nx + x. Logical dimensions are
reported as (nx, ny, nz). Displacements are in voxel units; voxel_size is
metadata in micrometers.

trilinear_gather is the one trilinear sampler. It takes leading channel axes,
vol[..., z, y, x], and samples every channel at the same points with one set
of clamped indices and weights: warp_array and the phantom scan's warp pass
one channel, and the baseline's dense field passes the three displacement
channels. Its one dtype rule: values and gradients come back in
result_type(vol, float32), whatever dtype the points have, so a float32 volume
stays float32. Each fraction is taken in the points' float dtype, where it is
exact, and cast once to that dtype, in which the corners are read and the
lerps run. A caller may name that dtype instead (dtype=np.float64): a float32
volume is then sampled with float64 arithmetic, each corner read as its exact
float64 value, and the values are the bits its float64 copy would give,
without that copy being made.

The sampler is one pass over the points it is given. Every whole-grid pass
in the package walks its grid with blocks(shape) instead: C-ordered index
tuples of at most BLOCK elements, whose indices, weights and corner reads
stay in cache instead of streaming whole-volume temporaries through memory.
grid_coords gives broadcast views of the full shape, so a block indexes the
coordinates as it does the grid, and only the block's are made. Each point's
result depends on that point alone, so the cut changes no output bit.

No stage holds a coordinate array of the whole volume. warp_array samples
one block at a time, in result_type(moving, disp, float32): a float64 volume
samples a float32 field as it would the field's float64 copy. The baseline's
dense field is built per block too, each cast to float32 as it is made.
invert_field samples u with float64 arithmetic (dtype=np.float64), which
reads each corner of u as its float64 value, and writes its inverse in u's
dtype. It runs all its fixed-point iterations on one block of voxels before
the next, since an iteration at voxel y reads only that voxel's own estimate
and the fixed field, so no float64 copy of u, whole or in part, is made.

parallel_map runs independent items on every CPU the process may use, and
every use is exact, because every item writes only its own output.
invert_field's blocks may run on any thread in any order, since a block
reads only its own estimate and the fixed field; synth_displacement smooths
its three channels separately; and each conv layer (layers.conv3d_forward,
layers.conv3d_param_grads) splits its output planes into ranges of whole
slabs, each computed as it would be on one thread, its weight-gradient
products summed by the caller in slab order. The calling thread takes a
share of the items itself, so the pool has one thread fewer than there are
CPUs: each pool thread gets its own glibc malloc arena, and a pool of one
thread per CPU beside an idle caller raised the peak resident memory of
phantom synthesis by 7%, against 3-5% with the caller working.

The conv layers own their parallelism, not BLAS: cli.main sets OpenBLAS to
one thread (cli.pin_blas_threads). A second BLAS thread split only the
GEMMs, and spun through the numpy work between them (operand copies,
accumulator adds, the bias copy-out), which on one thread is 13% of a
32-channel conv at 32^3 and 36% of a 16-channel one; a slab range runs that
work on its own core too. trilinear_gather itself stays serial, and so
does the register patch loop. Two patch threads once raised its peak memory
by 27%; two patches in flight beside the slab ranges took 12% off the
register_w64 benchmark's op_s but added 4% to its peak_mib (one run read
2.43 -> 2.14 s and 94.4 -> 98.3 MiB), so the memory that the per-slab
decoder blocks free (layers.upconv3d_forward) is kept, not spent on a
second patch.
"""
from __future__ import annotations

import math
import os
import queue
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

Vec3 = tuple[float, float, float]
IVec3 = tuple[int, int, int]

# elements per block of blocks(), the walk of every whole-grid pass: the
# indices, weights and corner reads of a 3-channel float64 block of points fit
# a 2 MiB L2 cache. Gathering 3 float64 channels at 64^3 points took 17.6 ms
# at 16384, against 23.5 ms at 4096 (per-block overhead) and 31.5 ms at 65536
# (spills L2), on a 2-core Xeon with 2 MiB of L2 per core.
BLOCK = 16384
INVERT_ITERATIONS = 8  # fixed-point iterations of invert_field


# parallel_map's threads: the caller and WORKERS - 1 pool threads, which start on
# first use; WORKERS is the CPUs this process may run on, and one CPU has no pool
WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
_POOL = ThreadPoolExecutor(WORKERS - 1, thread_name_prefix="voxcorr") if WORKERS > 1 else None


def parallel_map(fn, items) -> list:
    """[fn(item) for item in items], run on the calling thread and the pool.

    The caller and up to WORKERS - 1 pool threads each take the next untaken
    item until none is left, so the results come back in item order whichever
    thread ran each one. If items raised, the first of them in item order is
    re-raised in the caller once every started item has finished. Items run
    under the caller's np.errstate, which pool threads do not inherit. fn must
    write nothing that another item reads or writes.
    """
    items = list(items)
    results = [None] * len(items)
    errors = {}
    todo = queue.SimpleQueue()
    for i in range(len(items)):
        todo.put(i)

    def work(fp_state=np.geterr()) -> None:  # the default is taken on the calling thread
        while True:
            try:
                i = todo.get_nowait()
            except queue.Empty:
                return
            try:
                with np.errstate(**fp_state):
                    results[i] = fn(items[i])
            except Exception as e:  # re-raised in the caller
                errors[i] = e

    helpers = [_POOL.submit(work) for _ in range(min(WORKERS, len(items)) - 1)] if _POOL else []
    work()
    for h in helpers:
        if not h.cancel():  # one that never started has nothing left to take
            h.result()
    # a pool thread lets go of a finished helper only when it next runs, and a
    # cancelled one stays queued: neither may keep fn, or the arrays it holds, alive
    fn = items = None
    if errors:
        raise errors[min(errors)]
    return results


class VolumeError(ValueError):
    pass


def _check_grid(a: np.ndarray, name: str) -> None:
    if a.ndim != 3 or min(a.shape) < 1:
        raise VolumeError(f"{name} must be a non-empty 3D array, got shape {a.shape}")


def _check_voxel_size(vs) -> Vec3:
    vx, vy, vz = (float(v) for v in vs)
    if not all(0 < v < math.inf for v in (vx, vy, vz)):
        raise VolumeError(f"voxel_size must be strictly positive and finite, got {vs}")
    return (vx, vy, vz)


@dataclass(frozen=True)
class ScalarVolume:
    """Single-channel intensity grid. data[z, y, x], voxel_size in µm (vx, vy, vz).
    Finiteness is not checked here but where data enters or leaves: by vvol_read and vvol_write."""

    data: np.ndarray
    voxel_size: Vec3 = (1.0, 1.0, 1.0)

    def __post_init__(self):
        _check_grid(self.data, "data")
        object.__setattr__(self, "voxel_size", _check_voxel_size(self.voxel_size))

    @property
    def dims(self) -> IVec3:
        nz, ny, nx = self.data.shape
        return (nx, ny, nz)


@dataclass(frozen=True)
class BinaryVolume:
    """Boolean foreground mask with the same indexing as ScalarVolume."""

    mask: np.ndarray
    voxel_size: Vec3 = (1.0, 1.0, 1.0)

    def __post_init__(self):
        _check_grid(self.mask, "mask")
        object.__setattr__(self, "mask", self.mask.astype(bool, copy=False))
        object.__setattr__(self, "voxel_size", _check_voxel_size(self.voxel_size))

    @property
    def dims(self) -> IVec3:
        nz, ny, nx = self.mask.shape
        return (nx, ny, nz)


@dataclass(frozen=True)
class DisplacementField:
    """Per-voxel shifts in voxel units, channel-major: data[c, z, y, x], c = (ux, uy, uz).
    Like ScalarVolume, it leaves finiteness to vvol_read and vvol_write."""

    data: np.ndarray
    voxel_size: Vec3 = (1.0, 1.0, 1.0)

    def __post_init__(self):
        if self.data.ndim != 4 or self.data.shape[0] != 3:
            raise VolumeError(f"displacement data must be [3, nz, ny, nx], got {self.data.shape}")
        object.__setattr__(self, "voxel_size", _check_voxel_size(self.voxel_size))

    @property
    def dims(self) -> IVec3:
        _, nz, ny, nx = self.data.shape
        return (nx, ny, nz)


def grid_coords(shape_zyx, dtype=np.float64) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(zz, yy, xx) index grids for a [z, y, x] array shape: read-only broadcast
    views of the full shape, so a block of the grid (see blocks) indexes them too."""
    axes = np.meshgrid(*(np.arange(n, dtype=dtype) for n in shape_zyx), indexing="ij", sparse=True)
    return tuple(np.broadcast_to(a, tuple(shape_zyx)) for a in axes)


def blocks(shape) -> list[tuple]:
    """Index tuples that cut an array of `shape` into blocks of at most BLOCK
    elements, in C order: a range on one axis under fixed indices on the axes
    before it. A 0-d or empty shape is one block, so no elements still make
    one (empty) block."""
    if not shape or 0 in shape:
        return [()]
    axis = 0
    while math.prod(shape[axis + 1 :]) > BLOCK:
        axis += 1
    step = BLOCK // math.prod(shape[axis + 1 :])
    return [(*prefix, slice(s, s + step)) for prefix in np.ndindex(*shape[:axis])
            for s in range(0, shape[axis], step)]


def _cell(p: np.ndarray, n: int, dtype) -> tuple[np.ndarray, np.ndarray]:
    """Lower corner index of the clamped coordinate p on an axis of n voxels, and
    its fraction: taken in p's dtype, where it is exact, then cast to dtype. At
    the axis's last voxel the corner is that voxel and the fraction is exactly 0."""
    c = np.clip(p, 0.0, n - 1)
    i0 = np.maximum(np.floor(c).astype(np.intp), 0)  # floor(nan) casts to a negative index
    return i0, np.subtract(c, i0, dtype=c.dtype).astype(dtype, copy=False)


def _lerp(a: np.ndarray, b: np.ndarray, f: np.ndarray) -> np.ndarray:
    """a + f*(b - a), computed in b's buffer."""
    b -= a
    b *= f
    b += a
    return b


def trilinear_gather(vol: np.ndarray, px, py, pz, with_grad: bool = False, dtype=None):
    """Trilinear interpolation of vol[..., z, y, x] at continuous points (px, py, pz).

    Leading axes of vol are channels: every channel is sampled at the same
    points, sharing one set of indices and weights, and the result has shape
    vol.shape[:-3] + p.shape. Coordinates are clamped to [0, n-1] per axis
    (edge policy), which makes the sampling total. With with_grad=True also
    returns d(value)/d(p) per axis; the clamp zeroes the gradient outside the
    open interval (0, n-1).

    The value and the gradients are in result_type(vol, float32), whatever
    the points' dtype, or in `dtype` when it is given, which is then also
    the dtype of the arithmetic (see the module docstring). The points are
    sampled in one pass, with temporaries as large as the points: a caller
    with a whole grid of them passes one block at a time (see blocks).
    """
    *lead, nz, ny, nx = vol.shape
    pdtype = np.result_type(np.asarray(px).dtype, np.float32)
    dtype = np.result_type(vol, np.float32) if dtype is None else np.dtype(dtype)
    px, py, pz = np.broadcast_arrays(px, py, pz)
    shape = px.shape
    px, py, pz = (p.reshape(-1).astype(pdtype, copy=False) for p in (px, py, pz))
    flat = vol.reshape(*lead, nz * ny * nx)
    x0, fx = _cell(px, nx, dtype)
    y0, fy = _cell(py, ny, dtype)
    z0, fz = _cell(pz, nz, dtype)

    # corner (z0+a, y0+b, x0+c) sits at flat index i + a*oz + b*oy + c*ox
    i = (z0 * ny + y0) * nx + x0
    ox, oy, oz = 1, nx, nx * ny

    def at(o: int) -> np.ndarray:
        # an upper corner past an axis's last voxel has weight exactly 0: any finite value will do
        return np.take(flat, i + o, axis=-1, mode="clip").astype(dtype, copy=False)

    if not with_grad:
        # corners are read in the order the lerps use them: at most four live at once
        c0 = _lerp(_lerp(at(0), at(ox), fx), _lerp(at(oy), at(oy + ox), fx), fy)
        c1 = _lerp(_lerp(at(oz), at(oz + ox), fx), _lerp(at(oz + oy), at(oz + oy + ox), fx), fy)
        return _lerp(c0, c1, fz).reshape(*lead, *shape)

    # x-differences of the four x-edges, shared by the x-lerps and d/dfx
    edges = (0, oy, oz, oz + oy)
    lo = [at(o) for o in edges]
    dx00, dx01, dx10, dx11 = (at(o + ox) - v for o, v in zip(edges, lo))
    c00, c01, c10, c11 = (v + fx * d for v, d in zip(lo, (dx00, dx01, dx10, dx11)))
    dy0 = c01 - c00
    dy1 = c11 - c10
    c0 = c00 + fy * dy0
    c1 = c10 + fy * dy1
    gz = c1 - c0
    out = c0 + fz * gz

    gx = (dx00 + fy * (dx01 - dx00)) * (1 - fz) + (dx10 + fy * (dx11 - dx10)) * fz
    gy = dy0 * (1 - fz) + dy1 * fz

    # clamp kills the dependence on p outside the interior
    gx = gx * ((px > 0) & (px < nx - 1))
    gy = gy * ((py > 0) & (py < ny - 1))
    gz = gz * ((pz > 0) & (pz < nz - 1))
    out, gx, gy, gz = (a.reshape(*lead, *shape) for a in (out, gx, gy, gz))
    return out, (gx, gy, gz)


def warp_array(moving: np.ndarray, disp: np.ndarray, with_grad: bool = False):
    """Warp moving[z, y, x] by disp[3, z, y, x]: out(x) = moving(x + u(x)).

    With with_grad=True also returns (gx, gy, gz), the per-voxel derivatives of
    the output w.r.t. the three displacement channels. All are in the
    sampler's dtype, result_type(moving, float32).
    """
    if moving.shape != disp.shape[1:]:
        raise VolumeError(f"moving {moving.shape} and displacement {disp.shape[1:]} dims differ")
    zz, yy, xx = grid_coords(moving.shape, dtype=np.result_type(moving, disp, np.float32))
    outs = [np.empty(moving.shape, np.result_type(moving, np.float32)) for _ in range(4 if with_grad else 1)]
    for b in blocks(moving.shape):
        p = (xx[b] + disp[0][b], yy[b] + disp[1][b], zz[b] + disp[2][b])
        res = trilinear_gather(moving, *p, with_grad=with_grad)
        for o, r in zip(outs, [res[0], *res[1]] if with_grad else [res]):
            o[b] = r
    out, *grads = outs
    return (out, tuple(grads)) if with_grad else out


def warp(moving: ScalarVolume, disp: DisplacementField) -> ScalarVolume:
    if moving.dims != disp.dims:
        raise VolumeError(f"dims mismatch: moving {moving.dims} vs field {disp.dims}")
    return ScalarVolume(warp_array(moving.data, disp.data), moving.voxel_size)


def invert_field(disp: DisplacementField) -> DisplacementField:
    """Fixed-point inverse g of u: g(y) = -u(y + g(y)), iterated INVERT_ITERATIONS times from -u.

    Converges for the smooth, moderate-amplitude fields used in synthesis;
    warp(warp(V, u), invert_field(u)) then round-trips V on interior voxels.

    The update at voxel y reads only g(y) and the fixed field u, so every
    iteration runs on one block of the grid (see blocks) before the next starts;
    the result is the same as iterating on the whole grid. For the same
    reason the blocks run through parallel_map, on any thread and in any
    order, each writing only its own slice of g. The caller works through a
    share of them, since each extra thread costs a malloc arena of peak
    memory. The gathers inside a block stay serial (see the module
    docstring).

    u is sampled with float64 arithmetic and g is written in u's dtype. The
    gather reads each corner of u as its float64 value, so the bits are
    those of iterating on a float64 copy of u, and no copy is made: a block
    holds only its own float64 estimate and temporaries.
    """
    u = disp.data
    zz, yy, xx = grid_coords(u.shape[1:])
    g = np.empty(u.shape, u.dtype)

    def item(b: tuple) -> None:
        gb = -u[:, *b].astype(np.float64)
        for _ in range(INVERT_ITERATIONS):
            gb = trilinear_gather(u, xx[b] + gb[0], yy[b] + gb[1], zz[b] + gb[2], dtype=np.float64)
            np.negative(gb, out=gb)
        g[:, *b] = gb

    parallel_map(item, blocks(u.shape[1:]))
    return DisplacementField(g, disp.voxel_size)


def downsample2(vol: ScalarVolume) -> ScalarVolume:
    """Halve each dimension by 2x2x2 block averaging; trailing odd slices dropped."""
    nz, ny, nx = vol.data.shape
    if min(nx, ny, nz) < 2:
        raise VolumeError(f"all dims must be >= 2 to downsample, got {vol.dims}")
    mz, my, mx = nz // 2, ny // 2, nx // 2
    d = vol.data[: 2 * mz, : 2 * my, : 2 * mx]
    out = d.reshape(mz, 2, my, 2, mx, 2).mean(axis=(1, 3, 5))
    vx, vy, vz = vol.voxel_size
    return ScalarVolume(out.astype(vol.data.dtype, copy=False), (2 * vx, 2 * vy, 2 * vz))


def window_sums(a: np.ndarray, w: int) -> np.ndarray:
    """Sums of `a` over every w-wide window of its last three axes ("valid"
    positions only), from a running sum along each axis in turn; returned
    C-ordered, so a reduction over it sums in the same order as over a fresh array."""
    for axis in range(a.ndim - 3, a.ndim):
        c = np.moveaxis(np.cumsum(a, axis=axis), axis, 0)
        s = c[w - 1 :].copy()
        s[1:] -= c[:-w]
        a = np.moveaxis(s, 0, axis)
    return np.ascontiguousarray(a)


def minmax_normalize(vol: ScalarVolume) -> ScalarVolume:
    lo = float(vol.data.min())
    hi = float(vol.data.max())
    if hi == lo:
        raise VolumeError("cannot min-max normalize a constant volume")
    out = (vol.data.astype(np.float32) - lo) / (hi - lo)
    return ScalarVolume(out, vol.voxel_size)


def shift_into(vol: ScalarVolume | DisplacementField, target_dims: IVec3, offset: IVec3, fill: float = 0.0):
    """A new volume of the input's type on a (tx, ty, tz) grid, with out[x + offset]
    = in[x] where both voxels are on their grids and `fill` elsewhere; offset is
    (ox, oy, oz), and a displacement field's channels are shifted alike."""
    src = vol.data
    shape = tuple(int(t) for t in reversed(target_dims))  # (tz, ty, tx)
    out = np.full(src.shape[:-3] + shape, fill, dtype=src.dtype)
    dst_s, src_s = [], []
    for n, t, o in zip(src.shape[-3:], shape, (int(o) for o in reversed(offset))):
        lo = max(o, 0)
        hi = max(lo, min(n + o, t))  # [lo, hi) is the destination span, empty off the grid
        dst_s.append(slice(lo, hi))
        src_s.append(slice(lo - o, hi - o))
    out[(..., *dst_s)] = src[(..., *src_s)]
    return type(vol)(out, vol.voxel_size)


def crop_or_pad(vol: ScalarVolume | DisplacementField, target_dims: IVec3, fill: float = 0.0):
    """Center-crop axes that are too large, pad symmetrically (extra voxel on the
    high side) where too small. target_dims is (nx, ny, nz); a displacement
    field's channels are shaped alike. Returns the input's type: the input
    itself when it already has the target dims, else a new volume."""
    tx, ty, tz = (int(t) for t in target_dims)
    if min(tx, ty, tz) < 1:
        raise VolumeError(f"target dims must be positive, got {target_dims}")
    if vol.dims == (tx, ty, tz):
        return vol
    # (t - n) / 2 rounded toward zero: an odd crop keeps the low side, an odd pad grows high
    return shift_into(vol, (tx, ty, tz), tuple(int((t - n) / 2) for n, t in zip(vol.dims, (tx, ty, tz))), fill)
