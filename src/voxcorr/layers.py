"""Differentiable 3D building blocks with hand-written backward passes.

Feature grids are channel-first [c, D, H, W] numpy arrays without a batch
axis; batching is a loop at the training level. Convolutions are direct
cross-correlations computed as GEMMs, and keep only their input and kernel
for the backward pass. One code path walks the output in slabs of SLAB
z-planes. For each slab it writes the slab's zero-padded input planes into a
stacked operand once per tap of a group, each copy shifted back by that tap's
flat offset, so a single view of the stack serves the whole group. A conv
whose inner dimension cin*k^3 is at most FOLD_MAX_INNER (the 2-channel input
conv) puts all k^3 taps in one group and runs one GEMM per slab; every other
conv groups the k x-taps of each (a, b) kernel row and runs k^2
[cout, k*cin] x [k*cin, n] GEMMs per slab, the first into the slab
accumulator and the rest added to it. The weight gradient walks the same
slabs with the same operands. Max pooling keeps its input and the factor as
context and finds each block's winner again in the backward pass. Every
backward returns exact analytic gradients. All ops preserve the input dtype,
so gradient checks can run the whole stack in float64.
"""
from __future__ import annotations

import functools

import numpy as np

from .volume import VolumeError

# largest GEMM inner dimension (cin * k^3) for which a conv stacks all k^3 taps
# into one operand and runs one GEMM per slab: with a thin inner dimension the
# passes over the accumulator, not the multiplies, would bound it
FOLD_MAX_INNER = 64
# output z-planes per slab; 4, 16 and 32 were slower or took more memory
SLAB = 8


def _tap_group(cin: int, k: int) -> int:
    """Taps per stacked operand: all k^3 when cin*k^3 is small, else the k x-taps."""
    return k ** 3 if cin * k ** 3 <= FOLD_MAX_INNER else k


def _slab_operands(x: np.ndarray, k: int, group: int, dtype):
    """Per slab of SLAB output z-planes yield (z0, s, n, operands).

    Output voxel (z0 + z, y, x) sits at flat index (z*hp + y)*wp + x of the
    slab's zero-padded input planes, and tap (a, b, c) reads (a*hp + b)*wp + c
    further on. Row block g of the stacked operand holds those padded planes
    shifted back by the flat offset of tap g of the first group, so one view
    of the stack at the flat offset o of a group's first tap gives every tap
    of that group: operands[t] is the [group*cin, n] operand of tap group t,
    rows in (tap, ci) order. The n columns also cover the padding margin
    (y >= h or x >= w), cropped later.
    """
    cin, d, h, w = x.shape
    p = (k - 1) // 2
    hp, wp = h + 2 * p, w + 2 * p
    offsets = [(a * hp + b) * wp + c for a, b, c in np.ndindex(k, k, k)]
    shifts = offsets[:group]
    base = shifts[-1]
    sp = min(SLAB, d) + 2 * p
    span = sp * hp * wp
    stack = np.zeros((group, cin, base + span), dtype=dtype)
    # the margins are never written, so they stay zero from slab to slab
    blocks = [stack[g, :, base - sh:base - sh + span].reshape(cin, sp, hp, wp)[:, :, p:p + h, p:p + w]
              for g, sh in enumerate(shifts)]
    rows = stack.reshape(group * cin, -1)
    for z0 in range(0, d, SLAB):
        s = min(SLAB, d - z0)
        lo, hi = max(z0 - p, 0), min(z0 + s + p, d)  # input planes the slab reads
        a0, a1 = lo - (z0 - p), hi - (z0 - p)  # where they sit among the sp padded planes
        for blk in blocks:
            blk[:, :a0] = 0
            blk[:, a0:a1] = x[:, lo:hi]
            blk[:, a1:] = 0
        n = (s - 1) * hp * wp + (h - 1) * wp + w
        yield z0, s, n, [rows[:, base + o:base + o + n] for o in offsets[::group]]


def conv3d_forward(x: np.ndarray, kernel: np.ndarray, bias: np.ndarray):
    """Same-padded stride-1 cross-correlation.

    x [cin, D, H, W], kernel [cout, cin, k, k, k] with odd k, bias [cout].
    Returns (out [cout, D, H, W], ctx) with ctx = (x, kernel).
    """
    cout, cin, k, k2, k3 = kernel.shape
    if k != k2 or k != k3 or k % 2 == 0:
        raise VolumeError(f"kernel must be cubic with odd size, got {kernel.shape}")
    if x.ndim != 4 or x.shape[0] != cin:
        raise VolumeError(f"input {x.shape} incompatible with kernel {kernel.shape}")
    if bias.shape != (cout,):
        raise VolumeError(f"bias shape {bias.shape} != ({cout},)")
    _, d, h, w = x.shape
    hp, wp = h + k - 1, w + k - 1
    dtype = np.result_type(x, kernel)
    group = _tap_group(cin, k)
    # weight columns (tap, ci) of each group meet the stacked operand rows (tap, ci)
    wgroups = kernel.reshape(cout, cin, -1, group).transpose(2, 0, 3, 1).reshape(-1, cout, group * cin)
    acc = np.empty((cout, min(SLAB, d) * hp * wp), dtype=dtype)
    tmp = np.empty_like(acc)
    out = np.empty((cout, d, h, w), dtype=np.result_type(dtype, bias))
    for z0, s, n, operands in _slab_operands(x, k, group, dtype):
        acc_n = acc[:, :n]
        np.matmul(wgroups[0], operands[0], out=acc_n)
        for wt, cols in zip(wgroups[1:], operands[1:]):
            acc_n += np.matmul(wt, cols, out=tmp[:, :n])
        slab = acc[:, :s * hp * wp].reshape(cout, s, hp, wp)[:, :, :h, :w]
        np.add(slab, bias.reshape(cout, 1, 1, 1), out=out[:, z0:z0 + s])
    return out, (x, kernel)


def conv3d_param_grads(gout: np.ndarray, ctx) -> tuple[np.ndarray, np.ndarray]:
    """Gradients (dkernel, dbias) for conv3d_forward, without the input gradient."""
    x, kernel = ctx
    cout, cin, k = kernel.shape[:3]
    _, d, h, w = gout.shape
    hp, wp = h + k - 1, w + k - 1
    dtype = np.result_type(gout, x)
    group = _tap_group(cin, k)
    # gout laid out like the forward accumulator; the margin columns stay zero
    gpad = np.zeros((cout, min(SLAB, d), hp, wp), dtype=dtype)
    g2 = gpad.reshape(cout, -1)
    # dW transposed, [group*cin, cout] per group: OpenBLAS runs this long-inner
    # GEMM 1.1-1.8x faster as operand @ gout.T than as gout @ operand.T
    dwt = np.zeros((k ** 3 // group, group * cin, cout), dtype=dtype)
    for z0, s, n, operands in _slab_operands(x, k, group, dtype):
        gpad[:, :s, :h, :w] = gout[:, z0:z0 + s]
        for dw, cols in zip(dwt, operands):
            dw += cols @ g2[:, :n].T
    dkernel = dwt.reshape(-1, group, cin, cout).transpose(3, 2, 0, 1).reshape(kernel.shape)
    return dkernel, gout.sum(axis=(1, 2, 3))


def conv3d_backward(gout: np.ndarray, ctx) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients (dx, dkernel, dbias) for conv3d_forward."""
    kernel = ctx[1]
    dkernel, dbias = conv3d_param_grads(gout, ctx)
    # dx: same-padded convolution of gout with the flipped, transposed kernel
    kt = kernel[:, :, ::-1, ::-1, ::-1].transpose(1, 0, 2, 3, 4)
    dx, _ = conv3d_forward(gout, kt, np.zeros(kernel.shape[1], dtype=kernel.dtype))
    return dx, dkernel, dbias


def leaky_relu_forward(x: np.ndarray, slope: float = 0.2):
    """y = x for x >= 0 else slope*x, computed as max(x, slope*x), which equals
    it for slope <= 1; the gradient at 0 is defined as 1. Returns (y, x < 0).

    For 0 < slope <= 1, y is bit for bit np.where(x < 0, slope*x, x). At
    slope <= 0 two IEEE corner cases may differ: at a negative slope a zero
    input may come out with either sign, and slope 0 turns +inf into NaN
    (0 * inf).
    """
    neg = x < 0
    out = slope * x
    np.maximum(x, out, out=out)
    return out, neg


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
