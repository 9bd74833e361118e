"""Training losses: local windowed NCC similarity and displacement smoothness.

The similarity term is the squared local normalized cross-correlation over a
w^3 neighbourhood. Window sums are computed with zero padding and normalized
by the per-window count of in-bounds voxels, so border windows use true local
statistics (a constant target has exactly zero variance everywhere and the
score is invariant to affine intensity changes, borders included). An epsilon
in the denominator keeps zero-variance windows finite. The loss is -mean(cc),
in [-1, 0].
"""
from __future__ import annotations

import numpy as np

from .volume import VolumeError, window_sums

NCC_EPS = 1e-5


def ncc_loss(a: np.ndarray, b: np.ndarray, window: int = 9) -> tuple[float, np.ndarray]:
    """Negated mean local squared NCC between a and b, plus d(loss)/da.

    Each float64 intermediate is dropped after its last reader, and the
    gradient is summed term by term into one array. The expressions and
    their order are those of the single-expression form, so are the bits.
    """
    if a.shape != b.shape:
        raise VolumeError(f"shape mismatch {a.shape} vs {b.shape}")
    if window % 2 == 0 or window < 1:
        raise VolumeError(f"window must be odd and positive, got {window}")
    if window > min(a.shape[-3:]):
        raise VolumeError(f"window {window} exceeds patch extent {a.shape[-3:]}")
    r = window // 2

    def box(x):  # zero-padded sliding window^3 sum over the last three axes (self-adjoint)
        return window_sums(np.pad(x, [(0, 0)] * (x.ndim - 3) + [(r, r)] * 3), window)

    af = a.astype(np.float64, copy=False)
    bf = b.astype(np.float64, copy=False)
    n = box(np.ones(a.shape[-3:]))  # in-bounds voxels per window

    sa = box(af)
    sb = box(bf)
    sab = box(af * bf)
    saa = box(af * af)
    sbb = box(bf * bf)

    cross = sab - sa * sb / n
    del sab
    var_a = saa - sa * sa / n
    del saa
    var_b = sbb - sb * sb / n
    del sbb
    den = var_a * var_b + NCC_EPS
    del var_a
    cc = cross * cross / den
    m = cc.size
    loss = -float(cc.mean())

    alpha = 2.0 * cross / den
    del cross
    beta = cc * var_b / den  # cross^2 * var_b / den^2
    del cc, var_b, den
    # -(bf*box(alpha) - box(alpha*(sb/n)) - 2*af*box(beta) + 2*box(beta*(sa/n))) / m
    grad = bf * box(alpha)
    del bf
    grad -= box(alpha * (sb / n))
    del alpha, sb
    grad -= 2.0 * af * box(beta)
    del af
    grad += 2.0 * box(beta * (sa / n))
    del beta, sa, n
    np.negative(grad, out=grad)
    grad /= m
    return loss, grad.astype(a.dtype, copy=False)


def grad_l2_loss(disp: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean squared forward difference over channels, axes and voxels.

    The last slice along each axis has no forward difference and is excluded
    from both the sum and the sample count. The count is known from the views'
    sizes, so each axis's difference is made, added into the loss and the
    gradient, and dropped before the next, in the order of making all three
    first.
    """
    d = disp.astype(np.float64, copy=False)
    grad = np.zeros_like(d)
    # the (later, earlier) voxels of each forward difference, along each spatial axis
    views = [((slice(None),) * axis + (slice(1, None),), (slice(None),) * axis + (slice(None, -1),))
             for axis in (1, 2, 3)]
    count = sum(d[hi].size for hi, _ in views)
    total = 0.0
    for hi, lo in views:
        delta = d[hi] - d[lo]
        total += float((delta * delta).sum())
        g = 2.0 * delta / count
        del delta
        grad[hi] += g
        grad[lo] -= g
        del g
    return total / count, grad.astype(disp.dtype, copy=False)


def total_loss(
    moved: np.ndarray,
    fixed: np.ndarray,
    disp: np.ndarray,
    lam: float,
    window: int = 9,
) -> tuple[float, np.ndarray, np.ndarray]:
    """Similarity plus weighted smoothness; returns (loss, d/dmoved, d/ddisp)."""
    sim, d_moved = ncc_loss(moved, fixed, window)
    smooth, d_disp = grad_l2_loss(disp)
    return sim + lam * smooth, d_moved, lam * d_disp
