"""Differentiable 3D building blocks with hand-written backward passes.

Feature grids are channel-first [c, D, H, W] numpy arrays without a batch
axis; batching is a loop at the training level. Convolutions are direct
cross-correlations computed as GEMMs over shifted slices of the padded input,
which is all they keep for the backward pass. The tap loop takes the k^3
kernel taps in groups: a conv whose whole inner dimension cin*k^3 is at most
FOLD_MAX_INNER (the 2-channel input conv) stacks every tap's slice into one
[cin*k^3, n] operand and runs a single GEMM, and every other conv runs one
[cout, cin] x [cin, n] GEMM per tap. Max pooling keeps its input and the
factor as context and finds each block's winner again in the backward pass.
Every backward returns exact analytic gradients. All ops preserve the input
dtype, so gradient checks can run the whole stack in float64.
"""
from __future__ import annotations

import functools

import numpy as np

from .volume import VolumeError

# largest GEMM inner dimension (cin * k^3) for which one conv folds all its taps into one GEMM
FOLD_MAX_INNER = 64


def _tap_operands(xpad: np.ndarray, k: int, d: int, h: int, w: int):
    """n, and for each kernel tap (a, b, c) the [cin, n] operand it reads."""
    cin, _, hp, wp = xpad.shape
    # Output voxel (z, y, x) sits at flat index (z*hp + y)*wp + x of the padded
    # grid and tap (a, b, c) reads (a*hp + b)*wp + c further on, so each tap's
    # operand is one slice of the flattened input: a view, no copy. The n
    # columns also cover the padding margin (y >= h or x >= w), cropped later.
    n = (d - 1) * hp * wp + (h - 1) * wp + w
    flat = xpad.reshape(cin, -1)
    return n, [((a, b, c), flat[:, (a * hp + b) * wp + c:][:, :n]) for a, b, c in np.ndindex(k, k, k)]


def conv3d_forward(x: np.ndarray, kernel: np.ndarray, bias: np.ndarray):
    """Same-padded stride-1 cross-correlation.

    x [cin, D, H, W], kernel [cout, cin, k, k, k] with odd k, bias [cout].
    Returns (out [cout, D, H, W], ctx) with ctx = (padded x, kernel).
    """
    cout, cin, k, k2, k3 = kernel.shape
    if k != k2 or k != k3 or k % 2 == 0:
        raise VolumeError(f"kernel must be cubic with odd size, got {kernel.shape}")
    if x.ndim != 4 or x.shape[0] != cin:
        raise VolumeError(f"input {x.shape} incompatible with kernel {kernel.shape}")
    if bias.shape != (cout,):
        raise VolumeError(f"bias shape {bias.shape} != ({cout},)")
    _, d, h, w = x.shape
    p = (k - 1) // 2
    xpad = np.pad(x, ((0, 0), (p, p), (p, p), (p, p)))
    hp, wp = xpad.shape[2:]
    n, operands = _tap_operands(xpad, k, d, h, w)
    taps = k ** 3
    # each GEMM adds one pass over acc, which a thin inner dimension cannot
    # pay for: then a single GEMM takes every tap
    group = taps if cin * taps <= FOLD_MAX_INNER else 1
    wtap = np.ascontiguousarray(kernel.transpose(2, 3, 4, 0, 1)).reshape(taps, cout, cin)
    acc = np.zeros((cout, d * hp * wp), dtype=np.result_type(x, kernel))
    for t in range(0, taps, group):
        wt, cols = wtap[t], operands[t][1]
        if group > 1:  # stacked operand rows (tap, ci) meet weight columns (tap, ci)
            wt = np.concatenate(wtap[t:t + group], axis=1)
            cols = np.concatenate([tap_cols for _, tap_cols in operands[t:t + group]])
        acc[:, :n] += wt @ cols
    out = acc.reshape(cout, d, hp, wp)[:, :, :h, :w] + bias[:, None, None, None]
    return out, (xpad, kernel)


def conv3d_param_grads(gout: np.ndarray, ctx) -> tuple[np.ndarray, np.ndarray]:
    """Gradients (dkernel, dbias) for conv3d_forward, without the input gradient."""
    xpad, kernel = ctx
    cout, d, h, w = gout.shape
    hp, wp = xpad.shape[2:]
    n, operands = _tap_operands(xpad, kernel.shape[2], d, h, w)
    # gout laid out like the forward accumulator; the margin columns stay zero
    gpad = np.zeros((cout, d, hp, wp), dtype=gout.dtype)
    gpad[:, :, :h, :w] = gout
    g2 = gpad.reshape(cout, -1)[:, :n]
    dkernel = np.empty(kernel.shape, dtype=np.result_type(gout, xpad))
    for (a, b, c), cols in operands:
        dkernel[:, :, a, b, c] = g2 @ cols.T
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
