"""Differentiable 3D building blocks with hand-written backward passes.

Feature grids are channel-first [c, D, H, W] numpy arrays without a batch
axis; batching is a loop at the training level. Convolutions are stride-1
cross-correlations of the input zero-padded by an explicit pad (by default
(k-1)/2, same padding, for odd k), computed as GEMMs; they keep only their
input, kernel and pad for the backward pass. One code path walks the output in
slabs of SLAB z-planes. For each slab it writes the slab's padded input
planes into a stacked operand once per tap of a group, each copy shifted back
by that tap's flat offset, so a single view of the stack serves the whole
group. A conv with k*cin <= cout (the 2-channel input conv, the decoder's
parity convs) puts all k^3 taps in one group and runs one [cout, k^3*cin]
GEMM per slab. Every other conv groups the k x-taps of each (a, b) kernel row,
and the k groups of one z-tap a share a GEMM: their weights stack on its rows,
and one wider view of the operand serves them all, since group b starts b
padded rows after group 0. So a slab takes k [k*cout, k*cin] GEMMs, and
row block b of each is added into the slab accumulator from column b*wp on.
The weight gradient walks the same slabs with the same operands, against
gout shifted by b*wp in row block b. The input gradient is the conv of gout
with the flipped kernel at pad k-1-pad.

The slabs run on volume.parallel_map's threads, split into contiguous ranges
of whole slabs, one per worker and at least two slabs each; a conv with
fewer (at patch 32, the 8^3 and 4^3 levels) runs on the caller: split in
two, a 32-channel conv at 4^3 took 0.47 ms instead of 0.23. Each range has
its own operand stack and accumulator and writes only its own z-planes of
the output. A slab is finished in the range that computed it, while its
planes are in cache (_conv_slabs): conv3d_forward adds the bias as it
copies the slab into its planes of the output and, given a slope, applies
the LeakyReLU to those planes, so the model's activations make no pass of
their own. The weight gradient's ranges return their per-slab products,
which the caller adds in slab order. A slab computes the same whichever
range it falls in, so every output is the same bytes on any number of
workers.

A decoder block, conv(concat(upsample(coarse), skip)) with nearest 2x
upsampling, runs as two convs (upconv3d_forward). The skip half is a conv of
the skip input. The upsampled half is a conv of the coarse grid itself: along
each axis, fine index 2i + r reads coarse indices i + (r + a - p) // 2 for the
fine taps a = 0..k-1 (p = (k-1)/2), so each of the 8 output parities
(rz, ry, rx) is a (p+1)^3 kernel on the coarse grid whose taps are sums of the
k^3 taps (for k = 3: w[0] and w[1] + w[2] at coarse offsets -1 and 0 for even
r, w[0] + w[1] and w[2] at 0 and +1 for odd r). One conv with 8*cout output
channels computes all parities. It walks the coarse output in the same
slabs, and each slab adds its 8 parity blocks straight into the fine
output's parity views: coarse plane i + shift[rz] lands on fine plane
2i + rz. The fine planes a slab finished are then activated. Each fine
plane is finished by exactly one coarse slab, so the ranges still write
disjoint planes, and neither the [8*cout, ...] parity tensor nor a scatter
or activation pass over the block's output is left: at patch 32 that
tensor was 4.8 MiB at dec3, beside its 4 MiB output. Adding each GEMM's tap
blocks straight into cropped output views, with no slab accumulator, was
measured slower (84.9 -> 96.5 ms per patch-32 forward at two workers), so
the accumulator stays. That half costs (p+1)^3 multiply-adds per output
voxel and channel pair instead of k^3, and no upsampled or concatenated
tensor is made. Its weight gradient is the adjoint of the tap sums applied
to the parity kernels' gradient; its output gradient is gathered parity by
parity, the adjoint of the scatter.

Max pooling keeps its input and the factor as context and finds each block's
winner again in the backward pass. Every backward returns exact analytic
gradients. All ops preserve the input dtype, so gradient checks can run the
whole stack in float64.

Every op allocates its outputs and temporaries as new numpy arrays, which
die with their last reference. The sliding window repeats the same
allocations patch after patch; cli.main fixes glibc's malloc thresholds so
that freed memory stays in the heap for the next patch (see
cli.apply_malloc_policy).
"""
from __future__ import annotations

import functools

import numpy as np

from . import volume
from .volume import VolumeError

# output z-planes per slab. The buffers of every range live at once, so they
# scale with SLAB times the workers. At two workers and patch 32 on a 2-core
# Xeon with one BLAS thread, 2, 3 and 4 ran 27 inference forwards in 1.5-1.8 s
# and a training step in 0.18-0.22 s, within the run-to-run spread; a training
# step peaked at 32.9, 34.8 and 36.8 MiB (tracemalloc), against 34.0 for the
# serial conv at 6. At 6 the 16^3 convs have too few slabs to split: 1.88 s and
# 40.8 MiB. 3 keeps the peak near the serial conv's with the larger GEMMs.
SLAB = 3


def _tap_groups(cin: int, cout: int, k: int) -> tuple[int, int]:
    """(group, nb): taps per stacked operand, and tap groups per GEMM.

    All k^3 taps form one group, and a slab takes one GEMM, when k*cin <= cout.
    Otherwise a group is the k x-taps of one (a, b) kernel row, and the k
    groups of one z-tap a share a GEMM, their weights stacked on its output
    rows. Stacking all taps writes k^3 - k more operand rows per input channel;
    grouping only the x-taps costs k^2 - 1 more accumulator passes per output
    channel. The first is the cheaper when k*cin <= cout.
    """
    return (k ** 3, 1) if k * cin <= cout else (k, k)


def _slab_ranges(od: int) -> list[tuple[int, int]]:
    """Split od output z-planes into contiguous ranges of whole slabs, one
    per worker (volume.WORKERS, read at call time), each of at least 2 slabs:
    a conv with fewer slabs than that has fewer ranges, and a single range
    runs on the caller."""
    slabs = -(-od // SLAB)
    parts = max(1, min(volume.WORKERS, slabs // 2))
    cuts = [SLAB * (slabs * i // parts) for i in range(parts)] + [od]
    return list(zip(cuts[:-1], cuts[1:]))


def _slab_operands(x: np.ndarray, k: int, pad: int, group: int, nb: int, dtype, zs: tuple[int, int]):
    """Per slab of SLAB output z-planes in [zs[0], zs[1]) yield (z0, s, n, operands).

    zs[0] is a multiple of SLAB, so a slab covers the same planes whichever
    range it falls in. The input is zero-padded by pad on each side, to
    hp x wp planes. Output voxel (z0 + z, y, x) sits at flat index
    (z*hp + y)*wp + x of the slab's padded input planes, and tap (a, b, c)
    reads (a*hp + b)*wp + c further on.
    Row block g of the stacked operand holds those padded planes shifted back
    by the flat offset of tap g of the first group, so one view of the stack
    at the flat offset o of a group's first tap gives every tap of that group,
    rows in (tap, ci) order. Group j of a GEMM's nb groups starts j*wp after
    its first: operands[m] is the [group*cin, n + (nb - 1)*wp] view at the
    first group of GEMM m, and columns j*wp .. j*wp + n of it are group j's
    operand. The n columns also cover the margin (y or x past the output
    size), cropped later.
    """
    cin, d, h, w = x.shape
    hp, wp = h + 2 * pad, w + 2 * pad
    oh, ow = hp - k + 1, wp - k + 1
    offsets = [(a * hp + b) * wp + c for a, b, c in np.ndindex(k, k, k)]
    shifts = offsets[:group]
    base = shifts[-1]
    sp = min(SLAB, zs[1] - zs[0]) + k - 1
    span = sp * hp * wp
    stack = np.zeros((group, cin, base + span), dtype=dtype)
    # the margins are never written, so they stay zero from slab to slab
    blocks = [stack[g, :, base - sh:base - sh + span].reshape(cin, sp, hp, wp)[:, :, pad:pad + h, pad:pad + w]
              for g, sh in enumerate(shifts)]
    rows = stack.reshape(group * cin, -1)
    for z0 in range(*zs, SLAB):
        s = min(SLAB, zs[1] - z0)
        lo, hi = max(z0 - pad, 0), min(z0 + s + k - 1 - pad, d)  # input planes the slab reads
        a0, a1 = lo - (z0 - pad), hi - (z0 - pad)  # where they sit among the sp padded planes
        for blk in blocks:
            blk[:, :a0] = 0
            blk[:, a0:a1] = x[:, lo:hi]
            blk[:, a1:] = 0
        n = (s - 1) * hp * wp + (oh - 1) * wp + ow
        width = n + (nb - 1) * wp
        yield z0, s, n, [rows[:, base + o:base + o + width] for o in offsets[::group * nb]]


def _conv_slabs(x: np.ndarray, kernel: np.ndarray, pad: int, finish) -> None:
    """The conv of x with kernel at pad, slab by slab on the ranges of
    _slab_ranges: in the thread that computed it, each slab calls
    finish(z0, slab) with its output planes z0 .. z0 + s as a [cout, s, oh, ow]
    view of the range's accumulator, which the next slab overwrites."""
    cout, cin, k = kernel.shape[:3]
    _, d, h, w = x.shape
    hp, wp = h + 2 * pad, w + 2 * pad
    od, oh, ow = d + 2 * pad - k + 1, hp - k + 1, wp - k + 1
    dtype = np.result_type(x, kernel)
    group, nb = _tap_groups(cin, cout, k)
    # weight columns (tap, ci) of each group meet the stacked operand rows
    # (tap, ci); the nb groups of one GEMM stack on its rows
    wgemms = kernel.reshape(cout, cin, -1, group).transpose(2, 0, 3, 1).reshape(-1, nb * cout, group * cin)

    def run(zs: tuple[int, int]) -> None:
        acc = np.empty((cout, min(SLAB, zs[1] - zs[0]) * hp * wp), dtype=dtype)
        res = np.empty((nb * cout, acc.shape[1] + (nb - 1) * wp), dtype=dtype) if nb > 1 else None
        for z0, s, n, operands in _slab_operands(x, k, pad, group, nb, dtype, zs):
            acc_n = acc[:, :n]
            if nb == 1:  # all taps in one operand: one GEMM gives the slab
                np.matmul(wgemms[0], operands[0], out=acc_n)
            else:
                for m, (wt, cols) in enumerate(zip(wgemms, operands)):
                    # group j's product is row block j, read from column j*wp on
                    r = np.matmul(wt, cols, out=res[:, :cols.shape[1]]).reshape(nb, cout, -1)
                    parts = [r[j, :, j * wp:j * wp + n] for j in range(nb)]
                    if m == 0:
                        np.add(parts[0], parts[1], out=acc_n)
                        parts = parts[2:]
                    for part in parts:
                        acc_n += part
            finish(z0, acc[:, :s * hp * wp].reshape(cout, s, hp, wp)[:, :, :oh, :ow])

    volume.parallel_map(run, _slab_ranges(od))


def conv3d_forward(x: np.ndarray, kernel: np.ndarray, bias: np.ndarray | None = None, pad: int | None = None,
                   slope: float | None = None):
    """Stride-1 cross-correlation of the input zero-padded by pad on each side,
    then, if slope is given, leaky_relu_forward(out, slope).

    x [cin, D, H, W], kernel [cout, cin, k, k, k], bias [cout] or None for
    no bias (the slabs are then copied out with no add). pad defaults to
    (k - 1) // 2, same padding, for odd k; an even k needs an explicit pad in
    [0, k - 1]. Each slab is finished in the thread that computed it: its
    bias add writes its planes of out, and the LeakyReLU runs on those planes
    while they are in cache. Returns (out [cout, D + 2*pad - k + 1, ...], ctx)
    with ctx = (x, kernel, pad).
    """
    cout, cin, k, k2, k3 = kernel.shape
    if k != k2 or k != k3:
        raise VolumeError(f"kernel must be cubic, got {kernel.shape}")
    if pad is None:
        if k % 2 == 0:
            raise VolumeError(f"an even kernel {kernel.shape} needs an explicit pad")
        pad = (k - 1) // 2
    if not 0 <= pad <= k - 1:
        raise VolumeError(f"pad {pad} outside [0, {k - 1}] for kernel size {k}")
    if x.ndim != 4 or x.shape[0] != cin or min(x.shape[1:]) + 2 * pad < k:
        raise VolumeError(f"input {x.shape} incompatible with kernel {kernel.shape} at pad {pad}")
    if bias is not None and bias.shape != (cout,):
        raise VolumeError(f"bias shape {bias.shape} != ({cout},)")
    dtype = np.result_type(x, kernel)
    out = np.empty((cout,) + tuple(n + 2 * pad - k + 1 for n in x.shape[1:]),
                   dtype=dtype if bias is None else np.result_type(dtype, bias))

    def finish(z0: int, slab: np.ndarray) -> None:
        planes = out[:, z0:z0 + slab.shape[1]]  # each range writes only its own z-planes of out
        if bias is None:
            planes[...] = slab
        else:
            np.add(slab, bias.reshape(cout, 1, 1, 1), out=planes)
        if slope is not None:
            leaky_relu_forward(planes, slope)

    _conv_slabs(x, kernel, pad, finish)
    return out, (x, kernel, pad)


def conv3d_param_grads(gout: np.ndarray, ctx) -> tuple[np.ndarray, np.ndarray]:
    """Gradients (dkernel, dbias) for conv3d_forward, without the input gradient."""
    x, kernel, pad = ctx
    cout, cin, k = kernel.shape[:3]
    _, od, oh, ow = gout.shape
    hp, wp = x.shape[2] + 2 * pad, x.shape[3] + 2 * pad
    dtype = np.result_type(gout, x)
    group, nb = _tap_groups(cin, cout, k)

    def run(zs: tuple[int, int]) -> list[list[np.ndarray]]:
        """The per-slab products of the range, one per GEMM of a slab."""
        sz = min(SLAB, zs[1] - zs[0]) * hp * wp
        # row block j holds gout laid out like the forward accumulator, shifted
        # on by j*wp to meet group j of a GEMM's operand; the rest stays zero
        gsh = np.zeros((nb, cout, sz + (nb - 1) * wp), dtype=dtype)
        gviews = [gsh[j, :, j * wp:j * wp + sz].reshape(cout, -1, hp, wp) for j in range(nb)]
        g2 = gsh.reshape(nb * cout, -1)
        prods = []
        for z0, s, n, operands in _slab_operands(x, k, pad, group, nb, dtype, zs):
            for gv in gviews:
                gv[:, :s, :oh, :ow] = gout[:, z0:z0 + s]
            # dW transposed, [group*cin, nb*cout] per GEMM: OpenBLAS runs this
            # long-inner GEMM 1.1-1.8x faster as operand @ gout.T than as gout @ operand.T
            prods.append([cols @ g2[:, :cols.shape[1]].T for cols in operands])
        return prods

    # added in slab order, so dW is the same sum however the slabs were split
    dwt = np.zeros((k ** 3 // (group * nb), group * cin, nb * cout), dtype=dtype)
    for prods in volume.parallel_map(run, _slab_ranges(od)):
        for slab in prods:
            for dw, p in zip(dwt, slab):
                dw += p
    dkernel = dwt.reshape(-1, group, cin, nb, cout).transpose(4, 2, 0, 3, 1).reshape(kernel.shape)
    return dkernel, gout.sum(axis=(1, 2, 3))


def conv3d_backward(gout: np.ndarray, ctx) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients (dx, dkernel, dbias) for conv3d_forward."""
    _, kernel, pad = ctx
    dkernel, dbias = conv3d_param_grads(gout, ctx)
    # dx: convolution of gout with the flipped, transposed kernel at pad k - 1 - pad
    kt = kernel[:, :, ::-1, ::-1, ::-1].transpose(1, 0, 2, 3, 4)
    dx, _ = conv3d_forward(gout, kt, pad=kernel.shape[2] - 1 - pad)
    return dx, dkernel, dbias


@functools.cache
def _parity_taps(k: int) -> tuple[np.ndarray, int, tuple[int, int]]:
    """How a k^3 kernel on a 2x nearest-upsampled grid acts on the coarse grid.

    Per axis, with p = (k - 1) // 2, fine index 2i + r (parity r) reads fine
    offsets -p..p, i.e. coarse indices i + (r + a - p) // 2: p + 1
    consecutive coarse taps. Returns (m, cpad, shift). m [8*t^3, k^3], t = p + 1,
    maps the k^3 taps to the t^3 taps of each parity (rz, ry, rx), rows in
    (parity, tap) order; a parity tap is the sum of the fine taps landing on
    it. A conv of the coarse grid at pad cpad with those kernels puts parity r
    of fine index 2i + r at its output index i + shift[r].
    """
    p = (k - 1) // 2
    axis = np.zeros((2, p + 1, k))
    for r, a in np.ndindex(2, k):
        axis[r, (r + a - p) // 2 - (r - p) // 2, a] = 1
    m = np.einsum("zta,yub,xvc->zyxtuvabc", axis, axis, axis).reshape(8 * (p + 1) ** 3, k ** 3)
    m.flags.writeable = False
    cpad = (p + 1) // 2
    return m, cpad, tuple((r - p) // 2 + cpad for r in (0, 1))


def _parities(fine: np.ndarray, coarse_dims, shift, zs: tuple[int, int]):
    """Yield (r, fine view, coarse-output slice) per parity r = (rz, ry, rx)
    for the coarse conv's output planes zs[0] .. zs[1]: the view is fine's
    voxels (2i + rz, 2j + ry, 2l + rx) whose plane i + shift[rz] lies among
    them, and the slice picks their outputs (i + shift[rz], j + shift[ry],
    l + shift[rx]) from those planes, counted from zs[0]."""
    d, h, w = coarse_dims
    z0, z1 = zs
    f6 = fine.reshape(fine.shape[0], d, 2, h, 2, w, 2)
    for r, (rz, ry, rx) in enumerate(np.ndindex(2, 2, 2)):
        sz, sy, sx = shift[rz], shift[ry], shift[rx]
        i0 = max(z0 - sz, 0)
        i1 = max(min(z1 - sz, d), i0)
        yield r, f6[:, i0:i1, rz, :, ry, :, rx], np.s_[:, i0 + sz - z0:i1 + sz - z0, sy:sy + h, sx:sx + w]


def _parity_kernels(kernel: np.ndarray) -> np.ndarray:
    """The parity kernels [8*cout, c, t, t, t] of kernel [cout, c, k, k, k]
    (_parity_taps)."""
    cout, c, k = kernel.shape[:3]
    m = _parity_taps(k)[0]
    t = k // 2 + 1
    taps = m.astype(kernel.dtype) @ kernel.reshape(cout * c, k ** 3).T
    return taps.reshape(8, t ** 3, cout, c).transpose(0, 2, 3, 1).reshape(8 * cout, c, t, t, t)


def upconv3d_forward(coarse: np.ndarray, skip: np.ndarray, kernel: np.ndarray, bias: np.ndarray,
                     slope: float | None = None):
    """conv3d_forward(concat(upsample3d_forward(coarse, 2), skip), kernel, bias,
    slope=slope), computed without the upsampled or concatenated tensors.

    coarse [c, d, h, w], skip [s, 2d, 2h, 2w], kernel [cout, c + s, k, k, k]
    with odd k. The conv of skip with kernel[:, c:] writes the output first;
    the parity conv of coarse (_parity_taps) then adds each of its slabs into
    the output's parity views and activates the fine planes that slab
    finished (see the module docstring). Returns (out, ctx) with
    ctx = (coarse conv ctx, skip conv ctx).
    """
    c, d, h, w = coarse.shape
    cout, k = kernel.shape[0], kernel.shape[2]
    if (skip.ndim != 4 or skip.shape[1:] != (2 * d, 2 * h, 2 * w) or kernel.shape[1] != c + skip.shape[0]
            or k % 2 == 0):
        raise VolumeError(f"coarse {coarse.shape} and skip {skip.shape} incompatible with kernel {kernel.shape}")
    _, cpad, shift = _parity_taps(k)
    out, sctx = conv3d_forward(skip, kernel[:, c:], bias)
    pk = _parity_kernels(kernel[:, :c])

    def first_fine(z: int) -> int:
        """The first fine plane read from coarse output plane z or later. Fine
        plane f reads plane f // 2 + shift[f % 2], which never decreases with
        f, so each slab finishes a run of whole fine planes no other touches."""
        return min(2 * max(z - shift[0], 0), 2 * max(z - shift[1], 0) + 1, 2 * d)

    def finish(z0: int, slab: np.ndarray) -> None:
        zs = (z0, z0 + slab.shape[1])
        par = slab.reshape(8, cout, *slab.shape[1:])
        for r, view, at in _parities(out, (d, h, w), shift, zs):
            view += par[r][at]
        if slope is not None:
            leaky_relu_forward(out[:, first_fine(zs[0]):first_fine(zs[1])], slope)

    _conv_slabs(coarse, pk, cpad, finish)
    return out, ((coarse, pk, cpad), sctx)


def upconv3d_backward(gout: np.ndarray, ctx):
    """Gradients (dcoarse, dskip, dkernel, dbias) for upconv3d_forward."""
    cctx, sctx = ctx
    coarse, pk, cpad = cctx
    c, d, h, w = coarse.shape
    cout, k = gout.shape[0], sctx[1].shape[2]
    m, _, shift = _parity_taps(k)
    t = k // 2 + 1
    # the adjoint of the parity scatter: gout gathered parity-major
    gpar = np.zeros((8, cout) + tuple(n + 2 * cpad - t + 1 for n in (d, h, w)), dtype=gout.dtype)
    for r, view, at in _parities(gout, (d, h, w), shift, (0, gpar.shape[2])):
        gpar[r][at] = view
    dcoarse, dpk, _ = conv3d_backward(gpar.reshape(8 * cout, *gpar.shape[2:]), cctx)
    del gpar  # its last reader is done: the skip conv's backward runs without it
    dskip, dks, dbias = conv3d_backward(gout, sctx)
    # the adjoint of the tap sums
    dku = m.T.astype(dpk.dtype) @ dpk.reshape(8, cout * c, t ** 3).transpose(0, 2, 1).reshape(-1, cout * c)
    dku = dku.reshape(k ** 3, cout, c).transpose(1, 2, 0).reshape(cout, c, k, k, k)
    return dcoarse, dskip, np.concatenate([dku, dks], axis=1), dbias


def leaky_relu_forward(x: np.ndarray, slope: float = 0.2) -> np.ndarray:
    """LeakyReLU written over x, which it returns: y = x for x >= 0 else
    slope*x, computed as max(x, slope*x), which equals it for slope <= 1. The
    backward takes the mask x < 0; for 0 < slope <= 1 that is y < 0 except
    where slope*x underflows to -0. The gradient at 0 is defined as 1.

    For 0 < slope <= 1, y is bit for bit np.where(x < 0, slope*x, x). At
    slope <= 0 two IEEE corner cases may differ: at a negative slope a zero
    input may come out with either sign, and slope 0 turns +inf into NaN
    (0 * inf).
    """
    return np.maximum(x, slope * x, out=x)


def leaky_relu_backward(gout: np.ndarray, neg: np.ndarray, slope: float = 0.2) -> np.ndarray:
    """gout scaled by slope where the input was negative, by exactly 1 elsewhere."""
    scale = np.array([1, slope], dtype=gout.dtype)[neg.view(np.uint8)]  # np.where is 2x slower
    scale *= gout
    return scale


def _block_max(x: np.ndarray, f: int) -> np.ndarray:
    """Max over each f^3 block: pairwise maxima of strided views, one axis at a time."""
    for axis in (1, 2, 3):
        lead = (slice(None),) * axis
        x = functools.reduce(np.maximum, [x[lead + (slice(o, None, f),)] for o in range(f)])
    return x


def maxpool3d_forward(x: np.ndarray, factor: int = 2):
    """Non-overlapping block max. Returns (out, ctx) with ctx = (x, factor).

    Values equal the block maxima, except that a block whose maximum is a tie
    of -0.0 and +0.0 may return either sign.
    """
    c, d, h, w = x.shape
    f = factor
    if d % f or h % f or w % f:
        raise VolumeError(f"spatial dims {x.shape[1:]} not divisible by {f}")
    return _block_max(x, f), (x, f)


def maxpool3d_backward(gout: np.ndarray, ctx) -> np.ndarray:
    """Each block's gradient goes to its first maximum in (dz, dy, dx) order,
    i.e. the lowest linear index with x fastest; a block holding NaN gets none."""
    x, f = ctx
    m = _block_max(x, f)
    g = np.empty(x.shape, dtype=gout.dtype)  # the f^3 strided views below tile it
    free = np.ones(m.shape, dtype=bool)  # blocks whose maximum is not yet taken
    hit = np.empty(m.shape, dtype=bool)
    for a, b, c in np.ndindex(f, f, f):
        at = (slice(None), slice(a, None, f), slice(b, None, f), slice(c, None, f))
        np.equal(x[at], m, out=hit)
        hit &= free
        free ^= hit
        g[at] = np.where(hit, gout, 0)
    return g


def upsample3d_forward(x: np.ndarray, factor: int = 2) -> np.ndarray:
    """Nearest-neighbour replication along each spatial axis."""
    return x.repeat(factor, axis=1).repeat(factor, axis=2).repeat(factor, axis=3)


def upsample3d_backward(gout: np.ndarray, factor: int = 2) -> np.ndarray:
    """Adjoint of replication: sum the gradient over each replicated block."""
    c, d, h, w = gout.shape
    f = factor
    return gout.reshape(c, d // f, f, h // f, f, w // f, f).sum(axis=(2, 4, 6))
