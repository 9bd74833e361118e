"""The benchmark's three workloads: set-up, one operation, and output checks.

An operation is a list of `voxcorr` command lines, each run through
`voxcorr.cli.main(argv)` inside the benchmark's process. Set-up runs in a
child process, so that its memory does not count in the operations' peak.
The checks compare the program's outputs with computations made here, apart
from the code they check, or with properties the method must have.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
from scipy.ndimage import map_coordinates

from voxcorr.config import RunConfig
from voxcorr.inference import sliding_register
from voxcorr.losses import total_loss
from voxcorr.model import ModelConfig, checkpoint_load, checkpoint_save, init_params, model_backward, model_forward
from voxcorr.preprocess import otsu_threshold
from voxcorr.volume import ScalarVolume, invert_field
from voxcorr.vvol import vvol_read

# Sizes per scale. "full" is the measured benchmark at desk scale (80 µm
# voxels); "toy" runs the same operations and checks in seconds, for the
# harness self-check.
SCALES = {
    "full": {
        "train_extent_mm": "3.84",   # 48^3 volumes; a patch-32 step does not depend on volume size
        "train_c": "0,-0.3",         # two samples: one train, one val
        "patch": 32, "steps": 2, "batch": 2, "val_batch": 1,
        "register_extent_mm": "5.12",  # the 64^3 test volume
        "register_c": "-0.6",
        "synth_extent_mm": "5.12",
        "synth_c": "0,-0.3,-0.6",
        "dvc": [],                   # DvcConfig defaults: spacing 16, half-window 10, search 4, 2 levels
    },
    "toy": {
        "train_extent_mm": "2.56", "train_c": "0,-0.3",
        "patch": 16, "steps": 2, "batch": 1, "val_batch": 1,
        "register_extent_mm": "2.56", "register_c": "-0.6",
        "synth_extent_mm": "2.56", "synth_c": "0,-0.3,-0.6",
        "dvc": ["--node-spacing", "8", "--window-halfsize", "5", "--search-radius", "3"],
    },
}
HEAD_STD = 1.0  # register checkpoint head: fields of about 1 voxel, like a trained model's


class CheckFailed(AssertionError):
    pass


def require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def digest(*paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(Path(p).read_bytes())
    return h.hexdigest()


def inputs_digest(root: Path) -> str:
    """Digest of the volumes and checkpoints under a workspace."""
    return digest(*sorted(p for p in root.rglob("*") if p.suffix in (".vvol", ".vmck")))


@dataclass
class Workload:
    """One workload at one scale, working in workspace `ws`."""

    ws: Path
    seed: int
    scale: dict

    warmup = True  # run one untimed operation before timing
    setup_repeats = 3  # setup_s is the median of this many set-ups

    def gen_argv(self, extent: str, c_values: str) -> list[str]:
        return ["generate", "--workspace", str(self.ws), "--seed", str(self.seed),
                "--c-values", c_values, "--extent-mm", extent]

    def setup(self, run) -> None:
        """Build the workload's inputs; `run(argv)` runs one CLI command."""

    def op(self) -> list[list[str]]:
        raise NotImplementedError

    def record(self) -> str:
        """Digest of what one operation wrote; every operation must write the same."""
        raise NotImplementedError

    def check(self) -> dict[str, float]:
        """Check the last operation's outputs; returns the quality metrics."""
        return {}


class TrainP32(Workload):
    def setup(self, run):
        s = self.scale
        run(self.gen_argv(s["train_extent_mm"], s["train_c"]))
        run(["preprocess", "--workspace", str(self.ws)])
        base = RunConfig()
        RunConfig(train=replace(base.train, val_batch_size=s["val_batch"])).save(self.ws / "run.json")

    def op(self):
        s = self.scale
        return [["train", "--config", str(self.ws / "run.json"), "--workspace", str(self.ws),
                 "--seed", str(self.seed), "--epochs", "1", "--steps-per-epoch", str(s["steps"]),
                 "--batch-size", str(s["batch"]), "--patch-size", str(s["patch"])]]

    def record(self):
        return digest(self.ws / "checkpoint.vmck")

    def check(self):
        hist = json.loads((self.ws / "history.json").read_text())
        losses = hist["train_loss"] + hist["val_loss"]
        require(len(losses) == 2 and all(np.isfinite(v) and v >= -1.0 for v in losses),
                f"losses must be finite and >= -1: {losses}")
        params, cfg = checkpoint_load(self.ws / "checkpoint.vmck")
        init = init_params(cfg, np.random.default_rng(self.seed), dtype=np.float32)
        same = [k for k in init if np.array_equal(init[k], params[k])]
        require(not same, f"weights still at their initial values: {same}")
        require(np.any(params["head.w"] != 0), "displacement head never left zero")
        finite_difference_check()
        return {}


def finite_difference_check(eps: float = 1e-6, rtol: float = 1e-5) -> None:
    """Central differences of the training loss against model_backward, on a
    small float64 model with a non-zero head (a zero head zeroes every other
    gradient). Fixed inputs: the outcome does not depend on the run's seed."""
    cfg = ModelConfig(enc_features=(3, 3), dec_features=(3, 3, 2), patch_size=8)
    rng = np.random.default_rng(12345)
    params = init_params(cfg, rng, dtype=np.float64)
    params["head.w"] = rng.normal(0.0, 0.5, params["head.w"].shape)
    params["head.b"] = rng.normal(0.0, 0.2, params["head.b"].shape)
    moving = rng.random((8, 8, 8))
    fixed = rng.random((8, 8, 8))

    def loss(p):
        disp, moved, tape = model_forward(p, cfg, moving, fixed)
        return total_loss(moved, fixed, disp, 0.05, 3), tape

    (_, d_moved, d_disp), tape = loss(params)
    grads = model_backward(tape, d_moved, d_disp)
    for name, p in params.items():
        for flat in rng.choice(p.size, size=min(3, p.size), replace=False):
            idx = np.unravel_index(flat, p.shape)
            old = p[idx]
            p[idx] = old + eps
            up = loss(params)[0][0]
            p[idx] = old - eps
            down = loss(params)[0][0]
            p[idx] = old
            fd, an = (up - down) / (2 * eps), grads[name][idx]
            require(abs(fd - an) <= rtol * max(abs(fd), abs(an)) + 1e-9,
                    f"gradient of {name}{idx}: finite difference {fd:.9g} vs backward {an:.9g}")


class RegisterW64(Workload):
    warmup = False  # one operation takes about 11 s, which a warm-up would add to every run

    def setup(self, run):
        s = self.scale
        run(self.gen_argv(s["register_extent_mm"], s["register_c"]))
        run(["preprocess", "--workspace", str(self.ws)])
        cfg = ModelConfig(patch_size=s["patch"])
        rng = np.random.default_rng(self.seed)
        params = init_params(cfg, rng)
        params["head.w"] = rng.normal(0.0, HEAD_STD, params["head.w"].shape).astype(np.float32)
        checkpoint_save(params, cfg, self.ws / "ckpt.vmck")

    def op(self):
        return [["register", "--workspace", str(self.ws), "--checkpoint", str(self.ws / "ckpt.vmck"),
                 "--seed", str(self.seed), "--stride", str(self.scale["patch"] // 2)]]

    def _out(self):
        (sid,) = [p.name for p in (self.ws / "registered").iterdir()]
        return self.ws / "registered" / sid, self.ws / "dataset" / sid

    def record(self):
        out, _ = self._out()
        return digest(out / "moved.vvol", out / "disp.vvol")

    def check(self):
        out, data = self._out()
        params, cfg = checkpoint_load(self.ws / "ckpt.vmck")
        moving = vvol_read(data / "xct.vvol").data
        fixed = vvol_read(data / "cad.vvol").data
        disp = vvol_read(out / "disp.vvol").data
        p = self.scale["patch"]
        s = p // 2
        require(np.abs(disp).max() > 0.1, "register field is all but zero; the checkpoint head is not used")

        # blend: voxels [s, p) on each axis lie in exactly the patches at origins
        # 0 and s, so their blended field is the Gaussian-weighted mean of 8 patches
        i = np.arange(p, dtype=np.float64)
        g = np.exp(-((i - (p - 1) / 2.0) ** 2) / (2.0 * (p / 4.0) ** 2))
        win = g[:, None, None] * g[None, :, None] * g[None, None, :]
        num = np.zeros((3, p - s, p - s, p - s))
        den = np.zeros((p - s, p - s, p - s))
        for oz in (0, s):
            for oy in (0, s):
                for ox in (0, s):
                    sl = (slice(oz, oz + p), slice(oy, oy + p), slice(ox, ox + p))
                    d, _, _ = model_forward(params, cfg, moving[sl], fixed[sl], want_tape=False)
                    part = (slice(s - oz, p - oz), slice(s - oy, p - oy), slice(s - ox, p - ox))
                    num += win[part] * d[(slice(None),) + part]
                    den += win[part]
        ref = num / den
        got = disp[:, s:p, s:p, s:p]
        err = np.abs(got - ref).max()
        require(err <= 1e-5 * max(1.0, np.abs(ref).max()), f"blended field differs from the weighted patch mean by {err:.3g}")

        # identity: a zero head gives an exactly zero field and returns the input
        zero = dict(params, **{"head.w": np.zeros_like(params["head.w"]), "head.b": np.zeros_like(params["head.b"])})
        crop = (slice(0, p),) * 3
        moved_id, disp_id = sliding_register(zero, cfg, ScalarVolume(moving[crop].copy()), ScalarVolume(fixed[crop].copy()))
        require(np.all(disp_id.data == 0), "untrained checkpoint returned a non-zero field")
        ref_in = moving[crop].astype(np.float32)
        require(np.all(np.abs(moved_id.data - ref_in) <= np.finfo(np.float32).eps * np.abs(ref_in)),
                "untrained checkpoint changed the volume beyond float32 rounding")
        return {}


class SynthDvc(Workload):
    setup_repeats = 7  # set-up is only the CLI's start-up (about 0.5 s), which varies more

    def setup(self, run):
        run(["info", "--workspace", str(self.ws)])

    def op(self):
        s, ws = self.scale, str(self.ws)
        return [
            self.gen_argv(s["synth_extent_mm"], s["synth_c"]),
            ["preprocess", "--workspace", ws],
            ["baseline", "--workspace", ws] + s["dvc"],
            ["evaluate", "--workspace", ws, "--method", "baseline"],
        ]

    def _sid(self):
        (sid,) = [p.name for p in (self.ws / "baseline").iterdir()]
        return sid

    def record(self):
        out = self.ws / "baseline" / self._sid()
        return digest(out / "moved.vvol", out / "disp.vvol")

    def check(self):
        sid = self._sid()
        ws = self.ws

        # invert_field: g(y) + u(y + g(y)) = 0, sampled with scipy, away from the border
        u = vvol_read(ws / "raw" / sid / "gt_disp.vvol")
        g = invert_field(u).data.astype(np.float64)
        uu = u.data.astype(np.float64)
        zz, yy, xx = np.meshgrid(*(np.arange(n, dtype=np.float64) for n in uu.shape[1:]), indexing="ij")
        coords = [zz + g[2], yy + g[1], xx + g[0]]
        res = np.stack([g[c] + map_coordinates(uu[c], coords, order=1, mode="nearest") for c in range(3)])
        m = int(np.ceil(np.abs(uu).max())) + 1
        interior = np.sqrt((res ** 2).sum(axis=0))[m:-m, m:-m, m:-m]
        require(interior.max() < 1e-3, f"invert_field residual {interior.max():.3g} vox on interior voxels")

        # baseline accuracy against the ground truth, on the nominal foreground
        data = ws / "dataset" / sid
        cad = vvol_read(data / "cad.vvol")
        xct = vvol_read(data / "xct.vvol")
        gt = vvol_read(data / "gt_disp.vvol").data.astype(np.float64)
        out = ws / "baseline" / sid
        pred = vvol_read(out / "disp.vvol").data.astype(np.float64)
        moved = vvol_read(out / "moved.vvol")
        fg = cad.data > 0.5
        epe_id = float(np.sqrt((gt ** 2).sum(axis=0))[fg].mean())
        epe = float(np.sqrt(((pred - gt) ** 2).sum(axis=0))[fg].mean())
        require(epe < epe_id, f"baseline EPE {epe:.3f} vox is not below the identity's {epe_id:.3f}")

        # report: Dice and BDM shares recounted from the same Otsu masks
        a = otsu_threshold(cad)[1].mask
        b = otsu_threshold(xct)[1].mask
        c = otsu_threshold(moved)[1].mask
        before, after = recount(b, a), recount(c, a)
        require(after["dice"] > before["dice"], f"Dice fell: {before['dice']:.2f}% -> {after['dice']:.2f}%")
        report = json.loads((ws / "reports" / sid / "baseline" / "report.json").read_text())
        for key, want in (("dice_before_pct", before["dice"]), ("dice_after_pct", after["dice"])):
            require(abs(report[key] - want) < 1e-9, f"report {key} {report[key]} != recount {want}")
        for side, r in (("bdm_before", before), ("bdm_after", after)):
            for k in ("minus1", "zero", "plus1"):
                require(abs(report[side][k] - r[k]) < 1e-9, f"report {side}.{k} {report[side][k]} != recount {r[k]}")
        self.accuracy = {
            "identity": {"epe_vox": epe_id, "dice_pct": before["dice"], "bdm_zero_pct": before["zero"]},
            "baseline": {"epe_vox": epe, "dice_pct": after["dice"], "bdm_zero_pct": after["zero"]},
        }
        return {
            "quality.baseline_epe_vox": epe,
            "quality.baseline_dice_pct": after["dice"],
            "quality.baseline_bdm_zero_pct": after["zero"],
        }


def recount(scan: np.ndarray, nominal: np.ndarray) -> dict[str, float]:
    """Dice and BDM shares (percent of the union) of two masks, counted here."""
    inter = np.count_nonzero(scan & nominal)
    union = np.count_nonzero(scan | nominal)
    return {
        "dice": 100.0 * 2 * inter / (np.count_nonzero(scan) + np.count_nonzero(nominal)),
        "minus1": 100.0 * np.count_nonzero(nominal & ~scan) / union,
        "zero": 100.0 * inter / union,
        "plus1": 100.0 * np.count_nonzero(scan & ~nominal) / union,
    }


WORKLOADS = {"train_p32": TrainP32, "register_w64": RegisterW64, "synth_dvc": SynthDvc}
QUALITY_METRICS = {
    "quality.baseline_epe_vox": ("vox", "lower"),
    "quality.baseline_dice_pct": ("%", "higher"),
    "quality.baseline_bdm_zero_pct": ("%", "higher"),
}
