"""Command-line pipeline: generate | preprocess | train | register | baseline
| evaluate | info.

Each command runs exactly one stage, reads/writes artifacts under the
workspace and appends a JSON line (timestamp, stage, params, duration) to
<workspace>/run_log.jsonl.

Each flag is one row of FLAGS: name, commands, the dotted RunConfig paths it
sets (the seed sets both `seed` and `train.seed`), value parser and help. The
table builds the argparse subcommands and applies the flags, in table order,
with dataclasses.replace on top of the --config file (overlaid onto RunConfig(),
see RunConfig.from_json) or of RunConfig(). Rows without a path are arguments
of the command's handler in COMMANDS.

Exit codes: 0 success; 2 validation failure (bad flags; a config file that is
missing, malformed or has an unknown key or a wrong type; a flag value the
config rejects; missing inputs); 1 runtime error.
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from functools import reduce
from pathlib import Path
from typing import Callable

import numpy as np

from .baseline import multiscale_dvc
from .config import RunConfig, assign_splits
from .inference import sliding_register
from .jsonable import to_json
from .metrics import evaluate_pair
from .figures import export_bdm_slices, export_displacement_magnitude, export_overlay_slices
from .model import CheckpointError, checkpoint_load, checkpoint_save
from .preprocess import DatasetManifest, build_dataset, otsu_threshold
from .tpms import add_base_plate, add_spheres, degrade_to_xct, gyroid_field, tpms_solid
from .training import train
from .volume import BinaryVolume, ScalarVolume, VolumeError, warp
from .vvol import VvolError, vvol_read, vvol_write


class CliError(Exception):
    """Validation failure; maps to exit code 2."""


def float_list(s: str) -> tuple[float, ...]:
    return tuple(float(v) for v in s.split(","))


def int_triple(s: str) -> tuple[int, int, int]:
    dims = tuple(int(v) for v in s.split(","))
    if len(dims) != 3:
        raise argparse.ArgumentTypeError(f"expected nx,ny,nz, got {s!r}")
    return dims


@dataclass(frozen=True)
class Flag:
    name: str
    commands: tuple[str, ...]
    paths: tuple[str, ...]  # dotted RunConfig fields; () for a handler argument
    parse: Callable[[str], object]
    help: str
    choices: tuple[str, ...] | None = None

    @property
    def dest(self) -> str:
        return self.name[2:].replace("-", "_")


_ALL = ("generate", "preprocess", "train", "register", "baseline", "evaluate", "info")
_PICK = ("register", "baseline", "evaluate")

FLAGS = (
    Flag("--workspace", _ALL, ("workspace",), str, "workspace directory"),
    Flag("--seed", _ALL, ("seed", "train.seed"), int,
         "seed of generate (phantoms) and train (weights, patches); the other commands ignore it"),
    Flag("--c-values", ("generate",), ("c_values",), float_list,
         "comma-separated level-set offsets (default: 0..-0.6 sweep)"),
    Flag("--voxel-um", ("generate",), ("tpms.voxel_size",), float, "voxel pitch in micrometers"),
    Flag("--extent-mm", ("generate",), ("tpms.part_extent",), float, "part extent per axis in mm"),
    Flag("--plate-voxels", ("generate",), ("plate_voxels",), int, "base plate thickness in voxels"),
    Flag("--target-dims", ("preprocess",), ("target_dims",), int_triple, "comma-separated nx,ny,nz"),
    Flag("--manifest", ("train",) + _PICK, ("manifest",), str, "dataset manifest path"),
    Flag("--checkpoint", ("train", "register"), ("checkpoint",), str,
         "checkpoint path (train writes it, register reads it)"),
    Flag("--epochs", ("train",), ("train.epochs",), int, "training epochs"),
    Flag("--steps-per-epoch", ("train",), ("train.steps_per_epoch",), int, "optimizer steps per epoch"),
    Flag("--batch-size", ("train",), ("train.batch_size",), int, "patch pairs per step"),
    Flag("--patch-size", ("train",), ("model.patch_size",), int, "training patch edge length"),
    Flag("--ncc-window", ("train",), ("train.ncc_window",), int, "NCC window size (odd)"),
    Flag("--lr", ("train",), ("train.lr",), float, "initial learning rate"),
    Flag("--lambda-smooth", ("train",), ("train.lambda_smooth",), float, "smoothness weight"),
    Flag("--node-spacing", ("baseline",), ("dvc.node_spacing",), int, "node lattice spacing"),
    Flag("--window-halfsize", ("baseline",), ("dvc.window_halfsize",), int, "correlation window half-size"),
    Flag("--search-radius", ("baseline",), ("dvc.search_radius",), int, "search radius per level"),
    Flag("--levels", ("baseline",), ("dvc.pyramid_levels",), int, "pyramid levels"),
    Flag("--sample", _PICK, (), str, "sample id (default: all test samples)"),
    Flag("--stride", ("register",), (), int, "patch stride (default patch/2)"),
    Flag("--sigma", ("register",), (), float, "blend window sigma (default patch/4)"),
    Flag("--method", ("evaluate",), (), str, "registration output to evaluate (default: learned)",
         ("learned", "baseline", "both")),
)


def _flag_for(path: str) -> str:
    return next(f.name for f in FLAGS if path in f.paths)


def _log_run(cfg: RunConfig, stage: str, params: dict, duration: float) -> None:
    ws = Path(cfg.workspace)
    ws.mkdir(parents=True, exist_ok=True)
    line = {
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "stage": stage,
        "params": params,
        "duration_sec": duration,
    }
    with open(ws / "run_log.jsonl", "a") as f:
        f.write(json.dumps(line, sort_keys=True) + "\n")


def _sample_id(c: float) -> str:
    return f"c{c:g}"


def _mask_extras(cfg: RunConfig, voxel_size):
    if not cfg.plate_voxels and not cfg.marker_spheres:
        return None

    def extras(mask):
        bv = BinaryVolume(mask, voxel_size)
        if cfg.plate_voxels:
            bv = add_base_plate(bv, cfg.plate_voxels)
        if cfg.marker_spheres:
            centers = [tuple(s[:3]) for s in cfg.marker_spheres]
            radii = [s[3] for s in cfg.marker_spheres]
            bv = add_spheres(bv, centers, radii)
        return bv.mask

    return extras


# config fields that generate sets per sample, and the flag that drives each
_PER_SAMPLE = (("tpms.c_param", "--c-values"), ("deform.seed", "--seed"), ("degrade.seed", "--seed"))


def cmd_generate(cfg: RunConfig) -> dict:
    """synthesize the lattice sample sweep with ground truth"""
    default = RunConfig()
    for path, flag in _PER_SAMPLE:
        keys = path.split(".")
        if reduce(getattr, keys, cfg) != reduce(getattr, keys, default):
            raise CliError(f"{path} is set per sample by generate and cannot come from a config; use {flag}")
    raw_dir = Path(cfg.workspace) / "raw"
    raw_dir.mkdir(parents=True, exist_ok=True)
    seed_base = cfg.seed * 10007
    for i, c in enumerate(cfg.c_values):
        sid = _sample_id(c)
        spec = replace(cfg.tpms, c_param=c)
        dims = spec.grid_dims()
        f = gyroid_field(dims, spec.voxel_size, spec.cell_size)
        vs = (spec.voxel_size,) * 3
        extras = _mask_extras(cfg, vs)
        solid = tpms_solid(f, spec)
        cad_mask = extras(solid.mask.copy()) if extras else solid.mask
        deform = replace(cfg.deform, seed=seed_base + 2 * i)
        degrade = replace(cfg.degrade, seed=seed_base + 2 * i + 1)
        xct, gt = degrade_to_xct(f, spec, deform, degrade, mask_extras=extras)
        sdir = raw_dir / sid
        sdir.mkdir(exist_ok=True)
        vvol_write(sdir / "cad.vvol", ScalarVolume(cad_mask.astype(np.float32), vs))
        vvol_write(sdir / "xct.vvol", xct)
        vvol_write(sdir / "gt_disp.vvol", gt)
        specs = {"tpms": spec, "deform": deform, "degrade": degrade,
                 "plate_voxels": cfg.plate_voxels, "marker_spheres": cfg.marker_spheres}
        seeds = {"deform": deform.seed, "degrade": degrade.seed}
        sidecar = to_json({"id": sid, "c_param": c, "specs": specs, "seeds": seeds})
        (sdir / "sample.json").write_text(json.dumps(sidecar, indent=2, sort_keys=True))
        print(
            f"{sid}: dims {dims[0]}x{dims[1]}x{dims[2]}, solid {cad_mask.mean():.1%}, "
            f"max |gt| {np.abs(gt.data).max():.2f} vox"
        )
    return {"c_values": list(cfg.c_values), "seed": cfg.seed}


def cmd_preprocess(cfg: RunConfig) -> dict:
    """clean, align, shape and normalize raw pairs into a dataset"""
    raw_dir = Path(cfg.workspace) / "raw"
    sidecars = sorted(raw_dir.glob("*/sample.json"))
    if not sidecars:
        raise CliError(f"no generated samples under {raw_dir}; run generate first")
    samples, cs = [], {}
    for sc in sidecars:
        meta = json.loads(sc.read_text())
        sid = meta["id"]
        cs[sid] = meta["c_param"]
        samples.append(
            {
                "id": sid,
                "c_param": meta["c_param"],
                "cad_path": str(sc.parent / "cad.vvol"),
                "xct_path": str(sc.parent / "xct.vvol"),
                "gt_disp_path": str(sc.parent / "gt_disp.vvol"),
            }
        )
    by_c = assign_splits(list(cs.values()))
    split_assignment = {sid: by_c[c] for sid, c in cs.items()}
    target = cfg.target_dims or vvol_read(samples[0]["cad_path"]).dims
    manifest = build_dataset(
        samples, target, split_assignment, Path(cfg.workspace) / "dataset", clean_spec=cfg.clean
    )
    for entry in manifest.samples:
        print(f"{entry.id}: split {entry.split}")
    print(f"manifest: {cfg.manifest_path()}")
    return {"target_dims": list(target)}


def cmd_train(cfg: RunConfig) -> dict:
    """train the registration network on the dataset"""
    params, history = train(_load_manifest(cfg), cfg.model, cfg.train, log_fn=print)
    ckpt = cfg.checkpoint_path()
    ckpt.parent.mkdir(parents=True, exist_ok=True)
    checkpoint_save(params, cfg.model, ckpt)
    hist_path = Path(cfg.workspace) / "history.json"
    hist_path.write_text(json.dumps(history.to_json(), indent=2))
    print(f"checkpoint: {ckpt}")
    print(f"history: {hist_path}")
    return {"epochs": cfg.train.epochs, "steps_per_epoch": cfg.train.steps_per_epoch, "seed": cfg.train.seed}


def _load_manifest(cfg: RunConfig) -> DatasetManifest:
    mpath = cfg.manifest_path()
    if not mpath.exists():
        raise CliError(f"manifest not found at {mpath}; run preprocess or pass {_flag_for('manifest')}")
    return DatasetManifest.load(mpath)


def _select_samples(cfg: RunConfig, sample: str | None) -> list:
    manifest = _load_manifest(cfg)
    if sample:
        hits = [s for s in manifest.samples if s.id == sample]
        if not hits:
            raise CliError(f"sample {sample!r} not in manifest {cfg.manifest_path()}")
        return hits
    test = manifest.split("test")
    if not test:
        raise CliError(f"manifest {cfg.manifest_path()} has no test samples; pass --sample")
    return test


def cmd_register(cfg: RunConfig, sample: str | None = None, stride: int | None = None,
                 sigma: float | None = None) -> dict:
    """sliding-window registration of test samples"""
    ckpt = cfg.checkpoint_path()
    if not ckpt.exists():
        raise CliError(f"checkpoint not found at {ckpt}; pass {_flag_for('checkpoint')} or run train first")
    try:
        params, model_cfg = checkpoint_load(ckpt)
    except CheckpointError as e:
        raise CliError(str(e)) from e
    for entry in _select_samples(cfg, sample):
        moving = vvol_read(entry.xct_path)
        fixed = vvol_read(entry.cad_path)
        t_reg = time.perf_counter()
        moved, disp = sliding_register(
            params, model_cfg, moving, fixed,
            patch_size=model_cfg.patch_size, stride=stride, sigma=sigma,
        )
        runtime = time.perf_counter() - t_reg
        odir = Path(cfg.workspace) / "registered" / entry.id
        odir.mkdir(parents=True, exist_ok=True)
        vvol_write(odir / "moved.vvol", moved)
        vvol_write(odir / "disp.vvol", disp)
        (odir / "register.json").write_text(
            json.dumps({"sample_id": entry.id, "runtime_sec": runtime, "patch_size": model_cfg.patch_size}, indent=2)
        )
        print(f"{entry.id}: registered in {runtime:.1f}s -> {odir}")
    return {"sample": sample}


def cmd_baseline(cfg: RunConfig, sample: str | None = None) -> dict:
    """node-based DVC baseline on test samples"""
    samples = []
    for entry in _select_samples(cfg, sample):
        moving = vvol_read(entry.xct_path)
        fixed = vvol_read(entry.cad_path)
        t_reg = time.perf_counter()
        disp, nodes = multiscale_dvc(moving, fixed, cfg.dvc)
        moved = warp(moving, disp)
        runtime = time.perf_counter() - t_reg
        odir = Path(cfg.workspace) / "baseline" / entry.id
        odir.mkdir(parents=True, exist_ok=True)
        vvol_write(odir / "moved.vvol", moved)
        vvol_write(odir / "disp.vvol", disp)
        (odir / "nodes.json").write_text(json.dumps(nodes.to_json(), indent=2))
        (odir / "baseline.json").write_text(
            json.dumps({"sample_id": entry.id, "runtime_sec": runtime, "dvc": to_json(cfg.dvc)}, indent=2)
        )
        valid_pct = 100.0 * nodes.valid.mean()
        samples.append({
            "sample": entry.id,
            "nodes": int(nodes.valid.size),
            "valid_node_pct": float(valid_pct),
            "min_peak_ncc": float(nodes.correlations.min()),
            "median_peak_ncc": float(np.median(nodes.correlations)),
            "runtime_sec": runtime,
        })
        print(f"{entry.id}: baseline in {runtime:.1f}s, {valid_pct:.0f}% valid nodes -> {odir}")
    return {"sample": sample, "samples": samples}


def cmd_evaluate(cfg: RunConfig, sample: str | None = None, method: str = "learned") -> dict:
    """metrics report and figure export for registered samples"""
    methods = ["learned", "baseline"] if method == "both" else [method]
    method_dirs = {"learned": "registered", "baseline": "baseline"}
    for entry in _select_samples(cfg, sample):
        cad = vvol_read(entry.cad_path)
        xct = vvol_read(entry.xct_path)
        gt = vvol_read(entry.gt_disp_path) if entry.gt_disp_path else None
        _, cad_bin = otsu_threshold(cad)
        for method in methods:
            mdir = Path(cfg.workspace) / method_dirs[method] / entry.id
            moved_path = mdir / "moved.vvol"
            if not moved_path.exists():
                raise CliError(f"no {method} output for {entry.id}; expected {moved_path}")
            moved = vvol_read(moved_path)
            disp = vvol_read(mdir / "disp.vvol")
            meta_file = mdir / ("register.json" if method == "learned" else "baseline.json")
            runtime = json.loads(meta_file.read_text()).get("runtime_sec", 0.0) if meta_file.exists() else 0.0
            report, bdm_before, bdm_after = evaluate_pair(
                cad, xct, moved, disp, gt_disp=gt,
                sample_id=entry.id, method=method, runtime_sec=runtime,
            )
            rdir = Path(cfg.workspace) / "reports" / entry.id / method
            rdir.mkdir(parents=True, exist_ok=True)
            (rdir / "report.json").write_text(json.dumps(report.to_json(), indent=2))
            export_overlay_slices(cad, xct, rdir, prefix="overlay_before")
            export_overlay_slices(cad, moved, rdir, prefix="overlay_after")
            export_bdm_slices(bdm_before, rdir, prefix="bdm_before")
            export_bdm_slices(bdm_after, rdir, prefix="bdm_after")
            export_displacement_magnitude(disp, cad_bin, rdir, prefix="dispmag")
            epe = "-" if report.mean_epe_vox is None else f"{report.mean_epe_vox:.3f}"
            print(
                f"{entry.id} [{method}]: dice {report.dice_before_pct:.1f}% -> {report.dice_after_pct:.1f}%, "
                f"BDM0 {report.bdm_before['zero']:.1f}% -> {report.bdm_after['zero']:.1f}%, "
                f"mean EPE {epe} vox, {runtime:.1f}s -> {rdir}"
            )
    return {"sample": sample, "methods": methods}


def cmd_info(cfg: RunConfig) -> None:
    """print the resolved config and workspace artifacts"""
    print(json.dumps(cfg.to_json(), indent=2, sort_keys=True))
    ws = Path(cfg.workspace)
    artifacts = {
        "raw samples": sorted(p.parent.name for p in ws.glob("raw/*/sample.json")),
        "manifest": cfg.manifest_path().exists(),
        "checkpoint": cfg.checkpoint_path().exists(),
        "registered": sorted(p.parent.name for p in ws.glob("registered/*/moved.vvol")),
        "baseline": sorted(p.parent.name for p in ws.glob("baseline/*/moved.vvol")),
        "reports": sorted(str(p.relative_to(ws)) for p in ws.glob("reports/*/*/report.json")),
    }
    print(json.dumps({"artifacts": artifacts}, indent=2, sort_keys=True))


# each handler returns the params to record in run_log.jsonl, or None to record nothing
COMMANDS = {
    "generate": cmd_generate,
    "preprocess": cmd_preprocess,
    "train": cmd_train,
    "register": cmd_register,
    "baseline": cmd_baseline,
    "evaluate": cmd_evaluate,
    "info": cmd_info,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="voxcorr", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler in COMMANDS.items():
        p = sub.add_parser(name, help=handler.__doc__, description=handler.__doc__)
        p.add_argument("--config", help="JSON run config; flags override its fields")
        for flag in FLAGS:
            if name in flag.commands:
                p.add_argument(flag.name, type=flag.parse, choices=flag.choices, help=flag.help)
    return parser


def _override(obj, path: str, value):
    """replace() the field at dotted `path`, rebuilding each enclosing dataclass."""
    head, _, rest = path.partition(".")
    return replace(obj, **{head: _override(getattr(obj, head), rest, value) if rest else value})


def _resolve_config(args) -> RunConfig:
    try:
        cfg = RunConfig.load(args.config) if args.config else RunConfig()
    except (OSError, ValueError) as e:
        raise CliError(f"config {args.config}: {e}") from e
    for flag in FLAGS:
        value = getattr(args, flag.dest, None)
        for path in flag.paths if value is not None else ():
            try:
                cfg = _override(cfg, path, value)
            except ValueError as e:
                raise CliError(f"{flag.name} {value}: {e}") from e
    return cfg


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    kwargs = {
        f.dest: getattr(args, f.dest)
        for f in FLAGS
        if not f.paths and args.command in f.commands and getattr(args, f.dest) is not None
    }
    try:
        cfg = _resolve_config(args)
        t0 = time.perf_counter()
        params = COMMANDS[args.command](cfg, **kwargs)
        if params is not None:
            _log_run(cfg, args.command, params, time.perf_counter() - t0)
        return 0
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (VolumeError, VvolError, CheckpointError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
