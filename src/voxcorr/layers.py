"""Differentiable 3D building blocks with hand-written backward passes.

Feature grids are channel-first [c, D, H, W] numpy arrays without a batch
axis; batching is a loop at the training level. Convolutions are direct
cross-correlations lowered to a single GEMM per call via im2col; every
backward returns exact analytic gradients. All ops preserve the input dtype,
so gradient checks can run the whole stack in float64.
"""
from __future__ import annotations

import numpy as np

from .volume import VolumeError

# im2col chunk budget (elements); keeps large-volume inference within memory
_COL_BUDGET = 1 << 26


def _im2col(xpad: np.ndarray, k: int, z0: int, z1: int) -> np.ndarray:
    """Columns [cin*k^3, (z1-z0)*H*W] for output slices z in [z0, z1)."""
    cin = xpad.shape[0]
    h = xpad.shape[2] - (k - 1)
    w = xpad.shape[3] - (k - 1)
    s = xpad.strides
    view = np.lib.stride_tricks.as_strided(
        xpad[:, z0:],
        (cin, k, k, k, z1 - z0, h, w),
        (s[0], s[1], s[2], s[3], s[1], s[2], s[3]),
    )
    return view.reshape(cin * k ** 3, (z1 - z0) * h * w)


def conv3d_forward(x: np.ndarray, kernel: np.ndarray, bias: np.ndarray, want_ctx: bool = True):
    """Same-padded stride-1 cross-correlation.

    x [cin, D, H, W], kernel [cout, cin, k, k, k] with odd k, bias [cout].
    Returns (out [cout, D, H, W], ctx); ctx is None when want_ctx is False
    (inference path, which also chunks the im2col to bound memory).
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
    w2 = kernel.reshape(cout, cin * k ** 3)

    if want_ctx:
        cols = _im2col(xpad, k, 0, d)
        out = (w2 @ cols).reshape(cout, d, h, w)
        out += bias[:, None, None, None]
        return out, (cols, x.shape, kernel)

    out = np.empty((cout, d, h, w), dtype=np.result_type(x, kernel))
    step = max(1, _COL_BUDGET // (cin * k ** 3 * h * w))
    for z0 in range(0, d, step):
        z1 = min(z0 + step, d)
        cols = _im2col(xpad, k, z0, z1)
        out[:, z0:z1] = (w2 @ cols).reshape(cout, z1 - z0, h, w)
    out += bias[:, None, None, None]
    return out, None


def conv3d_param_grads(gout: np.ndarray, ctx) -> tuple[np.ndarray, np.ndarray]:
    """Gradients (dkernel, dbias) for conv3d_forward, without the input gradient."""
    cols, _, kernel = ctx
    g2 = gout.reshape(kernel.shape[0], -1)
    return (g2 @ cols.T).reshape(kernel.shape), g2.sum(axis=1)


def conv3d_backward(gout: np.ndarray, ctx) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients (dx, dkernel, dbias) for conv3d_forward."""
    kernel = ctx[2]
    dkernel, dbias = conv3d_param_grads(gout, ctx)
    # dx: same-padded convolution of gout with the flipped, transposed kernel
    kt = np.ascontiguousarray(kernel[:, :, ::-1, ::-1, ::-1].transpose(1, 0, 2, 3, 4))
    dx, _ = conv3d_forward(gout, kt, np.zeros(kernel.shape[1], dtype=kernel.dtype), want_ctx=False)
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
