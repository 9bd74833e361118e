"""Differentiable 3D building blocks with hand-written backward passes.

Feature grids are channel-first [c, D, H, W] numpy arrays without a batch
axis; batching is a loop at the training level. Convolutions are direct
cross-correlations computed as one [cout, cin] x [cin, n] GEMM per kernel tap
over shifted slices of the padded input, which is all they keep for the
backward pass; every backward returns exact analytic gradients. All ops
preserve the input dtype, so gradient checks can run the whole stack in
float64.
"""
from __future__ import annotations

import numpy as np

from .volume import VolumeError


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
    wtap = np.ascontiguousarray(kernel.transpose(2, 3, 4, 0, 1))  # [k, k, k, cout, cin]
    acc = np.zeros((cout, d * hp * wp), dtype=np.result_type(x, kernel))
    for (a, b, c), cols in operands:
        acc[:, :n] += wtap[a, b, c] @ cols
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
    """y = x for x >= 0 else slope*x; gradient at 0 is defined as 1."""
    neg = x < 0
    out = np.where(neg, slope * x, x)
    return out, neg


def leaky_relu_backward(gout: np.ndarray, neg: np.ndarray, slope: float = 0.2) -> np.ndarray:
    return np.where(neg, slope * gout, gout)


def maxpool3d_forward(x: np.ndarray, factor: int = 2):
    """Non-overlapping block max; ties go to the lowest linear index (x fastest)."""
    c, d, h, w = x.shape
    f = factor
    if d % f or h % f or w % f:
        raise VolumeError(f"spatial dims {x.shape[1:]} not divisible by {f}")
    blocks = (
        x.reshape(c, d // f, f, h // f, f, w // f, f)
        .transpose(0, 1, 3, 5, 2, 4, 6)
        .reshape(c, d // f, h // f, w // f, f ** 3)
    )
    idx = blocks.argmax(axis=-1)
    out = np.take_along_axis(blocks, idx[..., None], axis=-1)[..., 0]
    return out, (idx, x.shape, f)


def maxpool3d_backward(gout: np.ndarray, ctx) -> np.ndarray:
    idx, x_shape, f = ctx
    c, d, h, w = x_shape
    g = np.zeros((c, d // f, h // f, w // f, f ** 3), dtype=gout.dtype)
    np.put_along_axis(g, idx[..., None], gout[..., None], axis=-1)
    return (
        g.reshape(c, d // f, h // f, w // f, f, f, f)
        .transpose(0, 1, 4, 2, 5, 3, 6)
        .reshape(c, d, h, w)
    )


def upsample3d_forward(x: np.ndarray, factor: int = 2) -> np.ndarray:
    """Nearest-neighbour replication along each spatial axis."""
    return x.repeat(factor, axis=1).repeat(factor, axis=2).repeat(factor, axis=3)


def upsample3d_backward(gout: np.ndarray, factor: int = 2) -> np.ndarray:
    """Adjoint of replication: sum the gradient over each replicated block."""
    c, d, h, w = gout.shape
    f = factor
    return gout.reshape(c, d // f, f, h // f, f, w // f, f).sum(axis=(2, 4, 6))
