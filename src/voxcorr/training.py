"""Patch-based training of the registration network.

Each step draws random (scan, nominal) patch pairs from the training split,
accumulates hand-computed gradients over the batch in a fixed element order
and applies a bias-corrected Adam update. Validation runs on a fixed, seeded
set of patches so the plateau-based learning-rate schedule is reproducible;
the schedule baseline is the pre-training validation loss. The weights are
float32 and so are Adam's moments: each moment takes the dtype of its weight.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .losses import total_loss
from .model import ModelConfig, init_params, model_backward, model_forward
from .preprocess import DatasetManifest, sample_paths
from .volume import VolumeError, warp_array
from .vvol import vvol_read


class TrainingError(RuntimeError):
    pass


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 1e-3
    epochs: int = 200
    steps_per_epoch: int = 5
    batch_size: int = 8
    val_batch_size: int = 4
    lambda_smooth: float = 0.05
    ncc_window: int = 9
    plateau_factor: float = 0.5
    plateau_patience: int = 10
    plateau_min_improvement: float = 1e-4
    min_lr: float = 1e-5

    def __post_init__(self):
        if self.lr <= 0 or self.lambda_smooth < 0:
            raise VolumeError("lr must be positive and lambda_smooth non-negative")
        if self.ncc_window < 1 or self.ncc_window % 2 == 0:
            raise VolumeError(f"ncc_window must be odd and >= 1, got {self.ncc_window}")
        if self.epochs < 1 or self.steps_per_epoch < 1:
            raise VolumeError("epochs and steps_per_epoch must be >= 1")
        if self.batch_size < 1 or self.val_batch_size < 1:
            raise VolumeError("batch sizes must be >= 1")
        if not (0 < self.plateau_factor < 1 and self.plateau_patience >= 1):
            raise VolumeError("plateau_factor must lie in (0, 1) and plateau_patience be >= 1")
        if self.min_lr < 0 or self.plateau_min_improvement < 0:
            raise VolumeError("min_lr and plateau_min_improvement must be non-negative")


@dataclass
class TrainHistory:
    train_loss: list[float] = field(default_factory=list)
    val_loss: list[float] = field(default_factory=list)
    lr: list[float] = field(default_factory=list)
    wall_time: list[float] = field(default_factory=list)


# Adam's moment decay rates and denominator guard, the defaults of Kingma and Ba
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


def adam_step(params: dict, grads: dict, state: dict, lr: float, t: int = 1) -> None:
    """Standard bias-corrected Adam update, in place. t counts from 1.
    Raises TrainingError on a non-finite gradient or updated weight.

    The moments are allocated on a weight's first update in that weight's
    dtype: float32 weights keep float32 moments (half the bytes of float64
    ones, and the update is rounded to float32 anyway), float64 weights
    float64 ones."""
    for name, p in params.items():
        g = grads[name]
        if not np.all(np.isfinite(g)):
            raise TrainingError(f"non-finite gradient in {name!r}")
        if name not in state:
            state[name] = (np.zeros_like(p), np.zeros_like(p))
        m, v = state[name]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * (g * g)
        m_hat = m / (1.0 - ADAM_BETA1 ** t)
        v_hat = v / (1.0 - ADAM_BETA2 ** t)
        p -= (lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)).astype(p.dtype, copy=False)
        if not np.all(np.isfinite(p)):
            raise TrainingError(f"non-finite weights in {name!r} after the update")


class PlateauScheduler:
    """Start at cfg.lr and cut it by cfg.plateau_factor, down to cfg.min_lr,
    after cfg.plateau_patience epochs without the validation loss improving
    on the best seen, starting from `baseline`, by at least
    cfg.plateau_min_improvement."""

    def __init__(self, cfg: TrainConfig, baseline: float):
        self.cfg = cfg
        self.lr = float(cfg.lr)
        self.best = float(baseline)
        self.bad_epochs = 0

    def step(self, val_loss: float) -> float:
        cfg = self.cfg
        if val_loss < self.best - cfg.plateau_min_improvement:
            self.best = float(val_loss)
            self.bad_epochs = 0
        else:
            self.bad_epochs += 1
            if self.bad_epochs >= cfg.plateau_patience:
                self.lr = max(self.lr * cfg.plateau_factor, cfg.min_lr)
                self.bad_epochs = 0
        return self.lr


def sample_training_batch(
    manifest: DatasetManifest,
    data_dir,
    split: str,
    batch_size: int,
    patch_size: int,
    rng: np.random.Generator,
    cache: dict[str, tuple[np.ndarray, np.ndarray]] | None = None,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Random (moving scan, fixed nominal) patch pairs from one split.

    Volumes are read from `data_dir` on first use into `cache` (id -> float32 pair)."""
    entries = manifest.split(split)
    if not entries:
        raise VolumeError(f"split {split!r} is empty")
    cache = {} if cache is None else cache
    batch = []
    for _ in range(batch_size):
        entry = entries[int(rng.integers(len(entries)))]
        if entry.id not in cache:
            cad, xct, _ = sample_paths(data_dir, entry.id)
            cache[entry.id] = tuple(vvol_read(v).data.astype(np.float32, copy=False) for v in (xct, cad))
        moving, fixed = cache[entry.id]
        nz, ny, nx = moving.shape
        p = patch_size
        if min(nx, ny, nz) < p:
            raise VolumeError(
                f"sample {entry.id!r} dims {(nx, ny, nz)} smaller than patch {p}"
            )
        ox = int(rng.integers(nx - p + 1))
        oy = int(rng.integers(ny - p + 1))
        oz = int(rng.integers(nz - p + 1))
        sl = (slice(oz, oz + p), slice(oy, oy + p), slice(ox, ox + p))
        batch.append((moving[sl].copy(), fixed[sl].copy()))
    return batch


def _batch_eval(params, cfg, batch, lam, window) -> float:
    losses = []
    for moving, fixed in batch:
        disp, _, _ = model_forward(params, cfg, moving, fixed, want_tape=False)
        losses.append(total_loss(warp_array(moving, disp), fixed, disp, lam, window)[0])
    return float(np.mean(losses))


def train(
    manifest: DatasetManifest,
    data_dir,
    model_cfg: ModelConfig,
    train_cfg: TrainConfig,
    seed: int,
    log_fn=None,
) -> tuple[dict, TrainHistory]:
    """Full training run on the dataset in `data_dir`; returns final parameters and per-epoch history.
    `seed` draws the initial weights and training patches, `seed + 1` the fixed validation patches."""
    if not manifest.split("train") or not manifest.split("val"):
        raise VolumeError("train and val splits must be non-empty")
    rng = np.random.default_rng(seed)
    val_rng = np.random.default_rng(seed + 1)
    cache: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    p = model_cfg.patch_size
    lam, window = train_cfg.lambda_smooth, train_cfg.ncc_window

    params = init_params(model_cfg, rng, dtype=np.float32)
    state: dict = {}
    val_batch = sample_training_batch(
        manifest, data_dir, "val", train_cfg.val_batch_size, p, val_rng, cache
    )
    # the untrained network's validation loss without running it: init_params
    # zeroes the head, so the field is exactly 0, its warp is the identity and
    # this is _batch_eval's value
    zero = np.zeros((3, p, p, p), np.float32)
    baseline = float(np.mean([total_loss(moving, fixed, zero, lam, window)[0] for moving, fixed in val_batch]))
    sched = PlateauScheduler(train_cfg, baseline)
    history = TrainHistory()
    t = 0
    for epoch in range(1, train_cfg.epochs + 1):
        t0 = time.perf_counter()
        epoch_losses = []
        for step in range(train_cfg.steps_per_epoch):
            batch = sample_training_batch(manifest, data_dir, "train", train_cfg.batch_size, p, rng, cache)
            grad_sum: dict[str, np.ndarray] = {}
            losses = []
            for moving, fixed in batch:  # fixed order keeps reductions deterministic
                disp, moved, tape = model_forward(params, model_cfg, moving, fixed)
                loss, d_moved, d_disp = total_loss(moved, fixed, disp, lam, window)
                losses.append(loss)
                grads = model_backward(tape, d_moved, d_disp)
                for name, g in grads.items():
                    if name in grad_sum:
                        grad_sum[name] += g
                    else:
                        grad_sum[name] = g
            mean_loss = float(np.mean(losses))
            if not np.isfinite(mean_loss):
                raise TrainingError(f"non-finite loss at epoch {epoch}, step {step + 1}")
            for name in grad_sum:
                grad_sum[name] /= len(batch)
            t += 1
            try:
                adam_step(params, grad_sum, state, lr=sched.lr, t=t)
            except TrainingError as e:
                raise TrainingError(f"epoch {epoch}, step {step + 1}: {e}") from e
            epoch_losses.append(mean_loss)
        val_loss = _batch_eval(params, model_cfg, val_batch, lam, window)
        if not np.isfinite(val_loss):
            raise TrainingError(f"non-finite validation loss at epoch {epoch}, step {step + 1}")
        lr_used = sched.lr
        sched.step(val_loss)
        history.train_loss.append(float(np.mean(epoch_losses)))
        history.val_loss.append(val_loss)
        history.lr.append(lr_used)
        history.wall_time.append(time.perf_counter() - t0)
        if log_fn is not None:
            log_fn(
                f"epoch {epoch:4d}/{train_cfg.epochs}  train {history.train_loss[-1]:+.4f}  "
                f"val {val_loss:+.4f}  lr {lr_used:.2e}  {history.wall_time[-1]:.1f}s"
            )
    return params, history
