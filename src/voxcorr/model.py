"""Encoder-decoder registration network with skip connections.

The two input patches (moving scan, fixed nominal volume) are stacked into a
2-channel grid. Four encoder levels of conv + LeakyReLU + 2x max pooling feed
a decoder whose first four blocks convolve the 2x nearest-upsampled features
concatenated with the matching encoder activation. Each runs as
layers.upconv3d_forward: a conv of the skip activation plus a conv of the
coarse features with one 2x2x2 kernel per output parity (for kernel_size 3),
so neither the upsampled nor the concatenated tensor is made or taped. The
k^3 kernels stay the parameters. Two further full-resolution conv blocks
refine the features and a final convolution emits the 3-channel
displacement field. Every LeakyReLU is applied by the conv before it
(slope=cfg.leaky_slope), slab by slab as the conv finishes each slab's
output planes; the head has none.
For training, the moving patch warped by that field is returned along with a
tape of intermediates for the hand-written backward pass; inference returns
the field only.

The displacement head starts at exactly zero (zero kernel and bias), so an
untrained network is the identity transform.

A checkpoint is one VVOL file (vvol.py): the ModelConfig as its JSON metadata
and every parameter tensor, in param_shapes order, as one float32 row. The
config fixes each tensor's name and shape, so the file stores neither.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .jsonable import from_json, to_json
from .layers import (
    conv3d_backward,
    conv3d_forward,
    conv3d_param_grads,
    leaky_relu_backward,
    maxpool3d_backward,
    maxpool3d_forward,
    upconv3d_backward,
    upconv3d_forward,
)
from .volume import VolumeError, warp_array
from .vvol import VvolError, read_raw, write_raw


@dataclass(frozen=True)
class ModelConfig:
    enc_features: tuple[int, ...] = (32, 32, 32, 32)
    dec_features: tuple[int, ...] = (32, 32, 32, 32, 32, 16)
    kernel_size: int = 3
    leaky_slope: float = 0.2
    patch_size: int = 128

    def __post_init__(self):
        object.__setattr__(self, "enc_features", tuple(int(f) for f in self.enc_features))
        object.__setattr__(self, "dec_features", tuple(int(f) for f in self.dec_features))
        object.__setattr__(self, "leaky_slope", float(self.leaky_slope))
        # max(x, slope*x) is LeakyReLU up to slope 1 and keeps x's sign (model_backward) above 0
        if not 0 < self.leaky_slope <= 1:
            raise VolumeError(f"leaky_slope must lie in (0, 1], got {self.leaky_slope}")
        if min(self.kernel_size, self.patch_size, *self.enc_features, *self.dec_features) < 1:
            raise VolumeError("kernel_size, patch_size and feature counts must be positive")
        if self.kernel_size % 2 == 0:
            raise VolumeError("kernel_size must be odd")
        if len(self.dec_features) < len(self.enc_features):
            raise VolumeError("need at least one decoder block per encoder level")
        if self.patch_size % self.pool_factor:
            raise VolumeError(
                f"patch_size {self.patch_size} not divisible by {self.pool_factor}"
            )

    @property
    def pool_factor(self) -> int:
        return 2 ** len(self.enc_features)


def param_shapes(cfg: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Tensor shapes in fixed architectural order."""
    k = cfg.kernel_size
    enc = cfg.enc_features
    dec = cfg.dec_features
    n_up = len(enc)
    shapes: dict[str, tuple[int, ...]] = {}
    cin = 2
    for i, f in enumerate(enc):
        shapes[f"enc{i}.w"] = (f, cin, k, k, k)
        shapes[f"enc{i}.b"] = (f,)
        cin = f
    for j, f in enumerate(dec):
        if j < n_up:
            skip = enc[n_up - 1 - j]
            shapes[f"dec{j}.w"] = (f, cin + skip, k, k, k)
        else:
            shapes[f"dec{j}.w"] = (f, cin, k, k, k)
        shapes[f"dec{j}.b"] = (f,)
        cin = f
    shapes["head.w"] = (3, cin, k, k, k)
    shapes["head.b"] = (3,)
    return shapes


def init_params(cfg: ModelConfig, rng: np.random.Generator, dtype=np.float32) -> dict[str, np.ndarray]:
    """Uniform [-b, b] with b = 1/sqrt(cin*k^3) per conv; zeroed head."""
    params: dict[str, np.ndarray] = {}
    for name, shape in param_shapes(cfg).items():
        if name.startswith("head"):
            params[name] = np.zeros(shape, dtype=dtype)
        elif name.endswith(".w"):
            fan_in = int(np.prod(shape[1:]))
            bound = 1.0 / np.sqrt(fan_in)
            params[name] = rng.uniform(-bound, bound, size=shape).astype(dtype)
        else:
            params[name] = np.zeros(shape, dtype=dtype)
    return params


def _check_params(params: dict, cfg: ModelConfig) -> None:
    for name, shape in param_shapes(cfg).items():
        if name not in params:
            raise VolumeError(f"missing parameter tensor {name!r}")
        if tuple(params[name].shape) != shape:
            raise VolumeError(
                f"parameter {name!r} has shape {params[name].shape}, expected {shape}"
            )


def model_forward(params: dict, cfg: ModelConfig, moving: np.ndarray, fixed: np.ndarray, want_tape: bool = True):
    """Run the network on one patch pair.

    Returns (disp [3, p, p, p], moved [p, p, p], tape) for training; with
    want_tape False (inference) it returns (disp, None, None). Each conv
    writes its activation over its own output, slab by slab, and the tape
    keeps that output anyway as the input of the pool or the next conv, so
    it tapes no masks. Without a tape each block's input dies once the block
    has run, and each skip once its decoder block has used it.
    The sliding window frees and allocates those buffers patch after patch;
    the CLI's malloc policy (cli.apply_malloc_policy) keeps the freed memory
    in the heap, so no patch faults it back in.
    """
    if moving.shape != fixed.shape or moving.ndim != 3:
        raise VolumeError(f"patch shapes differ: {moving.shape} vs {fixed.shape}")
    if any(s % cfg.pool_factor for s in moving.shape):
        raise VolumeError(
            f"patch dims {moving.shape} must be divisible by {cfg.pool_factor}"
        )
    slope = cfg.leaky_slope
    n_up = len(cfg.enc_features)
    x = np.stack([moving, fixed])
    enc_tape, dec_tape, skips = [], [], []
    for i in range(n_up):
        y, cctx = conv3d_forward(x, params[f"enc{i}.w"], params[f"enc{i}.b"], slope=slope)
        skips.append(y)
        x, pctx = maxpool3d_forward(y, 2)
        if want_tape:
            enc_tape.append((cctx, pctx))
        del cctx, pctx  # without a tape, the block's input dies here, and its skip after use
    for j in range(len(cfg.dec_features)):
        w, b = params[f"dec{j}.w"], params[f"dec{j}.b"]
        if j < n_up:
            y, cctx = upconv3d_forward(x, skips.pop(), w, b, slope=slope)
        else:
            y, cctx = conv3d_forward(x, w, b, slope=slope)
        if want_tape:
            dec_tape.append(cctx)
        del x, cctx  # without a tape, the block's inputs die here
        x = y
    disp, head_ctx = conv3d_forward(x, params["head.w"], params["head.b"])
    if not want_tape:
        return disp, None, None
    moved, warp_grads = warp_array(moving, disp, with_grad=True)
    tape = {
        "enc": enc_tape,
        "dec": dec_tape,
        "head": head_ctx,
        "warp": warp_grads,
        "slope": slope,
        "n_up": n_up,
    }
    return disp, moved, tape


def model_backward(tape: dict, d_moved: np.ndarray, d_disp: np.ndarray) -> dict[str, np.ndarray]:
    """Parameter gradients given upstream gradients for moved and disp.

    Consumes the tape: each block's context is dropped once its gradients are
    taken, so the pass holds only the contexts still ahead of it. Each
    gradient is dropped once its last reader (a mask, a pool, a skip add or
    its block's backward) has it, so no block's backward runs beside the
    gradient its output gradient was made from. Each LeakyReLU mask is read
    off the activated output, the input of the block after, before that
    block's context is handed to its backward. The head's and the
    full-resolution conv blocks' contexts go to conv3d_backward straight off
    the tape, so each input is freed once its weight gradient is taken (see
    conv3d_backward) and the input gradient's conv runs beside the one-byte
    mask instead. For 0 < slope <= 1 the output's sign is the input's, except
    where slope*x underflows to -0 (at slope 0.2 the two smallest negative
    subnormals, in float32 and float64): there the backward uses scale 1,
    as at 0.
    """
    slope = tape["slope"]
    n_up = tape["n_up"]
    gx, gy, gz = tape["warp"]
    g_disp = d_disp.copy()
    g_disp[0] += d_moved * gx
    g_disp[1] += d_moved * gy
    g_disp[2] += d_moved * gz

    grads: dict[str, np.ndarray] = {}
    neg = tape["head"][0] < 0  # the last decoder block's output: the head's input
    dx, grads["head.w"], grads["head.b"] = conv3d_backward(g_disp, tape.pop("head"))
    del g_disp
    skip_grads: list[np.ndarray | None] = [None] * n_up
    for j in reversed(range(len(tape["dec"]))):
        dy = leaky_relu_backward(dx, neg, slope)
        del dx, neg
        if j:  # block j-1's output: this block's (coarse) input
            neg = (tape["dec"][-1][0][0] if j < n_up else tape["dec"][-1][0]) < 0
        if j < n_up:
            dx, skip_grads[n_up - 1 - j], dw, db = upconv3d_backward(dy, tape["dec"].pop())
        else:
            dx, dw, db = conv3d_backward(dy, tape["dec"].pop())
        grads[f"dec{j}.w"], grads[f"dec{j}.b"] = dw, db
        del dy
    for i in reversed(range(n_up)):
        cctx, pctx = tape["enc"].pop()
        da = maxpool3d_backward(dx, pctx)
        del dx
        da += skip_grads[i]
        skip_grads[i] = None
        dy = leaky_relu_backward(da, pctx[0] < 0, slope)
        del da, pctx
        if i:
            dx, grads[f"enc{i}.w"], grads[f"enc{i}.b"] = conv3d_backward(dy, cctx)
        else:  # nothing needs the gradient with respect to the input patches
            grads["enc0.w"], grads["enc0.b"] = conv3d_param_grads(dy, cctx)
    return grads


# checkpoint container ---------------------------------------------------------


class CheckpointError(IOError):
    pass


def checkpoint_save(params: dict, cfg: ModelConfig, path) -> None:
    """One VVOL file (see vvol.py): the config as metadata and every tensor,
    in param_shapes order, concatenated into one float32 row."""
    _check_params(params, cfg)
    flat = np.concatenate([params[name].ravel() for name in param_shapes(cfg)], dtype=np.float32)
    write_raw(path, flat.reshape(1, 1, -1), meta=to_json(cfg))


def checkpoint_load(path) -> tuple[dict[str, np.ndarray], ModelConfig]:
    """Inverse of checkpoint_save. Raises CheckpointError on a file read_raw
    rejects, a config that is not a valid ModelConfig, a payload whose length
    is not the config's parameter count, or non-finite weights."""
    try:
        data, _, meta = read_raw(path)
        cfg = from_json(ModelConfig, meta)
    except VvolError as e:
        raise CheckpointError(str(e)) from e
    except VolumeError as e:
        raise CheckpointError(f"{path}: invalid model config: {e}") from e
    shapes = param_shapes(cfg)
    sizes = [math.prod(shape) for shape in shapes.values()]
    if data.size != sum(sizes):
        raise CheckpointError(f"{path}: payload has {data.size} values, config requires {sum(sizes)}")
    params: dict[str, np.ndarray] = {}
    for (name, shape), t in zip(shapes.items(), np.split(data.ravel(), np.cumsum(sizes)[:-1])):
        if not np.all(np.isfinite(t)):
            raise CheckpointError(f"{path}: tensor {name!r} contains non-finite values")
        params[name] = t.reshape(shape)
    return params, cfg
