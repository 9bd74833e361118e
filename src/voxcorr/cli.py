"""Command-line pipeline: generate | preprocess | train | register | baseline
| evaluate | info.

Each command runs exactly one stage, reads/writes artifacts under the
workspace and appends one JSON line to <workspace>/run_log.jsonl: timestamp,
stage, the resolved `config` (to_json of the RunConfig), the handler `args` given
(sample, stride, method), `params` (results the config does not hold, such as
baseline's node statistics), duration_sec, peak_rss_mib, the process's
peak resident memory so far (ru_maxrss) at the end of the stage, and
`versions`, those of Python, numpy and scipy; info logs nothing. A process
that runs one stage, as the command line does, logs that stage's peak.

Each flag is one row of FLAGS: name, commands, the one dotted RunConfig path
it sets, value parser and help. The table builds the argparse subcommands.
Given flags write their values at their paths into the --config document (or
{}), so flags win, and the merged document is decoded once (RunConfig.from_json),
so every check sees the resolved settings. Rows without a path are arguments
of the command's handler in COMMANDS.

Workspace layout: raw/<id>/ from generate (the id is c<c value>), whose
sample.json records the c value (c_param) and seeds that generate passed to
tpms.synthesize_sample, beside the sweep's specs;
dataset/<id>/ and a manifest.json of ids, c values and splits only, from
preprocess (see preprocess), so a moved workspace still works; a configured
manifest path moves the sample folders beside it;
checkpoint.vmck and history.json from train; registered/<id>/ and
baseline/<id>/ (METHODS), where register and baseline write moved.vvol (the
scan warped by the field), disp.vvol and a JSON record; reports/<id>/<method>/
from evaluate, which binarizes each volume once for metrics and figures.
jsonable.write_json is the one writer of these JSON side files.

Exit codes: 0 success; 2 validation failure (bad flags; a config file that is
missing, malformed or has an unknown key, a wrong type or a non-finite number;
a flag value the config rejects; a generator grid or target dims under
preprocess.MIN_GRID voxels per axis, which preprocessing could not carry; a
plate or sphere off the resolved grid; c values whose sample ids collide; a
register stride outside [1, patch size]; a training or checkpoint patch, or a
DVC node grid, that does not fit the manifest's target_dims, checked before any
volume is read; missing inputs); 1 runtime error: a corrupt side file
(manifest, sample.json, a JSON record), a non-finite number in one or in a VVOL
payload, diverged training.

main runs every command under one malloc policy (apply_malloc_policy): glibc
serves blocks below 32 MiB from its heap and keeps up to 1 GiB of freed heap
memory instead of handing it back to the system. The register patch loop
frees and allocates the same buffers patch after patch, so later patches
reuse that memory without faulting it back in. No output depends on it.
main also sets OpenBLAS to one thread (pin_blas_threads): the conv layers
split their own work over the CPUs, and their outputs are the same bytes on
any number of CPUs.
"""
from __future__ import annotations

import argparse
import ctypes
import functools
import json
import platform
import resource
import sys
import time
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable

import numpy as np

from .baseline import build_node_grid, multiscale_dvc
from .config import RunConfig
from .inference import sliding_register
from .jsonable import decode, read_json, to_json, write_json
from .metrics import evaluate_pair
from .figures import export_bdm_slices, export_displacement_magnitude, export_overlay_slices
from .model import CheckpointError, checkpoint_load, checkpoint_save
from .preprocess import DatasetManifest, build_dataset, otsu_threshold, sample_paths
from .tpms import synthesize_sample
from .training import TrainingError, train
from .volume import BinaryVolume, DisplacementField, ScalarVolume, VolumeError, warp
from .vvol import VvolError, vvol_read, vvol_write


# glibc malloc thresholds that main sets for every command (apply_malloc_policy)
M_MMAP_THRESHOLD = 32 * 2**20
M_TRIM_THRESHOLD = 2**30


@functools.cache
def apply_malloc_policy() -> bool:
    """Set M_MMAP_THRESHOLD and M_TRIM_THRESHOLD through glibc's mallopt, once
    per process; True if libc took both. Where libc has no mallopt it does
    nothing and returns False.

    Both are needed. By default glibc raises its mmap threshold, from 128 KiB
    up to 32 MiB, to the largest mmapped block freed so far, and its trim
    threshold to twice that; setting either one stops that and leaves the
    other where it stands, 128 KiB at start-up. The trim threshold alone
    leaves every buffer above 128 KiB to mmap, which unmaps it again on free.
    The mmap threshold alone puts the buffers on the heap, but the heap then
    hands any 128 KiB free at its top back to the system. Minor faults per
    sliding_register call at 32^3 with patch 16 (calls 2-4): neither 36k,
    the trim threshold alone 28k-37k, the mmap threshold alone 70k, both
    under 10.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return False
    # M_MMAP_THRESHOLD is parameter -3 and M_TRIM_THRESHOLD -1 in glibc's malloc.h
    took = mallopt(-3, M_MMAP_THRESHOLD), mallopt(-1, M_TRIM_THRESHOLD)
    return all(took)


def _openblas_functions(name: str) -> list:
    """The function openblas_<name> of every OpenBLAS mapped into this
    process, under whichever spelling the library exports: plain, with the
    scipy_ prefix of the scipy-openblas wheels, or with the 64_ suffix of
    64-bit-integer builds. Libraries are found through /proc/self/maps, so
    there are none where that file does not exist."""
    try:
        with open("/proc/self/maps") as f:
            paths = sorted({line.split(None, 5)[5].strip() for line in f if "openblas" in line})
    except OSError:
        return []
    fns = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:  # a deleted file, or not a library after all
            continue
        spellings = (f"{pre}openblas_{name}{suf}" for pre in ("", "scipy_") for suf in ("", "64_"))
        fn = next(filter(None, (getattr(lib, sym, None) for sym in spellings)), None)
        if fn is not None:
            fns.append(fn)
    return fns


def pin_blas_threads() -> int:
    """Set every OpenBLAS mapped into this process to one thread; returns
    how many libraries took it (0 where none is found).

    The conv layers run their slab ranges on volume.parallel_map's threads.
    With BLAS at two threads, GEMMs from two Python threads contend for its
    threads, and between GEMMs BLAS's second thread spins through the numpy
    work. The forward of a 32 -> 32-channel conv at 32^3 on a 2-core Xeon:
    unsplit at two BLAS threads 13.7-14.7 ms (28-31 ms of CPU time); split
    over two Python threads, 15.5-16.0 ms at two BLAS threads and
    11.7-12.9 ms (21-23 ms of CPU time) at one.
    """
    fns = _openblas_functions("set_num_threads")
    for fn in fns:
        fn.argtypes, fn.restype = [ctypes.c_int], None
        fn(1)
    return len(fns)


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
    path: str | None  # dotted RunConfig field; None for a handler argument
    parse: Callable[[str], object]
    help: str
    choices: tuple[str, ...] | None = None

    @property
    def dest(self) -> str:
        return self.name[2:].replace("-", "_")


# registration method -> (workspace folder of its per-sample outputs, JSON record file)
METHODS = {"learned": ("registered", "register.json"), "baseline": ("baseline", "baseline.json")}


_ALL = ("generate", "preprocess", "train", "register", "baseline", "evaluate", "info")
_PICK = ("register", "baseline", "evaluate")

FLAGS = (
    Flag("--workspace", _ALL, "workspace", str, "workspace directory"),
    Flag("--seed", ("generate", "train", "register"), "seed", int,
         "seed of generate (phantoms) and train (weights, patches); register accepts it for the "
         "benchmark's command line and ignores it"),
    Flag("--c-values", ("generate",), "c_values", float_list,
         "comma-separated level-set offsets (default: 0..-0.6 sweep)"),
    Flag("--voxel-um", ("generate",), "tpms.voxel_size", float, "voxel pitch in micrometers"),
    Flag("--extent-mm", ("generate",), "tpms.part_extent", float, "part extent per axis in mm"),
    Flag("--plate-voxels", ("generate",), "plate_voxels", int, "base plate thickness in voxels"),
    Flag("--target-dims", ("preprocess",), "target_dims", int_triple, "comma-separated nx,ny,nz"),
    Flag("--manifest", ("train",) + _PICK, "manifest", str, "dataset manifest path"),
    Flag("--checkpoint", ("train", "register"), "checkpoint", str,
         "checkpoint path (train writes it, register reads it)"),
    Flag("--epochs", ("train",), "train.epochs", int, "training epochs"),
    Flag("--steps-per-epoch", ("train",), "train.steps_per_epoch", int, "optimizer steps per epoch"),
    Flag("--batch-size", ("train",), "train.batch_size", int, "patch pairs per step"),
    Flag("--patch-size", ("train",), "model.patch_size", int, "training patch edge length"),
    Flag("--ncc-window", ("train",), "train.ncc_window", int, "NCC window size (odd)"),
    Flag("--lr", ("train",), "train.lr", float, "initial learning rate"),
    Flag("--lambda-smooth", ("train",), "train.lambda_smooth", float, "smoothness weight"),
    Flag("--node-spacing", ("baseline",), "dvc.node_spacing", int, "node lattice spacing"),
    Flag("--window-halfsize", ("baseline",), "dvc.window_halfsize", int, "correlation window half-size"),
    Flag("--search-radius", ("baseline",), "dvc.search_radius", int, "search radius per level"),
    Flag("--levels", ("baseline",), "dvc.pyramid_levels", int, "pyramid levels"),
    Flag("--sample", _PICK, None, str, "sample id (default: all test samples)"),
    Flag("--stride", ("register",), None, int, "patch stride (default patch/2)"),
    Flag("--method", ("evaluate",), None, str, "registration output to evaluate (default: learned)",
         (*METHODS, "both")),
)


@functools.cache
def _versions() -> dict:
    """The Python, numpy and scipy versions, read once per process. scipy's
    comes from its installed metadata, so logging a stage imports no scipy."""
    # imported at the first record, not with the CLI: scipy imports it anyway,
    # but in a stage without scipy, importing it at start-up added 1.6 MiB to
    # the peak resident memory of each 128^3 stage
    import importlib.metadata

    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": importlib.metadata.version("scipy")}


def _log_run(cfg: RunConfig, stage: str, args: dict, params: dict, duration: float) -> None:
    ws = Path(cfg.workspace)
    ws.mkdir(parents=True, exist_ok=True)
    line = {
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "stage": stage,
        "config": to_json(cfg),
        "args": args,
        "params": params,
        "duration_sec": duration,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,  # KiB on Linux
        "versions": _versions(),
    }
    with open(ws / "run_log.jsonl", "a") as f:
        f.write(json.dumps(line, sort_keys=True) + "\n")


def cmd_generate(cfg: RunConfig) -> dict:
    """synthesize the lattice sample sweep with ground truth"""
    ids: dict[str, float] = {}  # sample id -> c value
    for c in cfg.c_values:
        if (sid := f"c{c:g}") in ids:
            raise CliError(f"c values {ids[sid]!r} and {c!r} both give sample id {sid!r}")
        ids[sid] = c
    raw_dir = Path(cfg.workspace) / "raw"
    raw_dir.mkdir(parents=True, exist_ok=True)
    for i, (sid, c) in enumerate(ids.items()):
        seed = cfg.seed * 10007 + 2 * i  # the degradations draw from seed + 1
        cad, xct, gt = synthesize_sample(
            cfg.tpms, c, cfg.deform, cfg.degrade, seed, cfg.plate_voxels, cfg.marker_spheres
        )
        cad_path, xct_path, gt_path = sample_paths(raw_dir, sid)
        cad_path.parent.mkdir(exist_ok=True)
        vvol_write(cad_path, ScalarVolume(cad.mask.astype(np.float32), cad.voxel_size))
        vvol_write(xct_path, xct)
        vvol_write(gt_path, gt)
        specs = {"tpms": cfg.tpms, "deform": cfg.deform, "degrade": cfg.degrade,
                 "plate_voxels": cfg.plate_voxels, "marker_spheres": cfg.marker_spheres}
        seeds = {"deform": seed, "degrade": seed + 1}
        write_json(cad_path.parent / "sample.json", {"id": sid, "c_param": c, "specs": specs, "seeds": seeds})
        nx, ny, nz = cad.dims
        print(f"{sid}: dims {nx}x{ny}x{nz}, solid {cad.mask.mean():.1%}, max |gt| {np.abs(gt.data).max():.2f} vox")
        del cad, xct, gt  # written: the next sample need not share the peak with this one
    return {}


def cmd_preprocess(cfg: RunConfig) -> dict:
    """clean, align, shape and normalize raw pairs into a dataset"""
    raw_dir = Path(cfg.workspace) / "raw"
    if not any(raw_dir.glob("*/sample.json")):
        raise CliError(f"no generated samples under {raw_dir}; run generate first")
    manifest = build_dataset(raw_dir, cfg.manifest_path(), cfg.target_dims, cfg.clean)
    for entry in manifest.samples:
        print(f"{entry.id}: split {entry.split}")
    print(f"manifest: {cfg.manifest_path()}")
    return {}


def cmd_train(cfg: RunConfig) -> dict:
    """train the registration network on the dataset"""
    manifest = _load_manifest(cfg)
    _check_patch_fits(cfg, manifest, cfg.model.patch_size, "training")
    with np.errstate(over="ignore", invalid="ignore"):  # divergence is train's one TrainingError, not warnings
        params, history = train(manifest, cfg.manifest_path().parent, cfg.model, cfg.train, cfg.seed, print)
    ckpt = cfg.checkpoint_path()
    ckpt.parent.mkdir(parents=True, exist_ok=True)
    checkpoint_save(params, cfg.model, ckpt)
    hist_path = Path(cfg.workspace) / "history.json"
    write_json(hist_path, history)
    print(f"checkpoint: {ckpt}")
    print(f"history: {hist_path}")
    return {}


def _load_manifest(cfg: RunConfig) -> DatasetManifest:
    mpath = cfg.manifest_path()
    if not mpath.exists():
        raise CliError(f"manifest not found at {mpath}; run preprocess or pass --manifest")
    return DatasetManifest.load(mpath)


def _check_patch_fits(cfg: RunConfig, manifest: DatasetManifest, patch_size: int, whose: str) -> None:
    """Every dataset volume has the manifest's target_dims: a larger patch fails before any is read."""
    if patch_size > min(manifest.target_dims):
        raise CliError(
            f"{whose} patch size {patch_size} exceeds the dataset dims {manifest.target_dims} "
            f"of {cfg.manifest_path()}"
        )


def _select_samples(
    cfg: RunConfig, manifest: DatasetManifest, sample: str | None
) -> list[tuple[str, tuple[Path, Path, Path]]]:
    """(id, (cad, xct, gt_disp) paths) of the named sample, or of every test sample."""
    if sample:
        entries = [s for s in manifest.samples if s.id == sample]
        if not entries:
            raise CliError(f"sample {sample!r} not in manifest {cfg.manifest_path()}")
    else:
        entries = manifest.split("test")
        if not entries:
            raise CliError(f"manifest {cfg.manifest_path()} has no test samples; pass --sample")
    return [(s.id, sample_paths(cfg.manifest_path().parent, s.id)) for s in entries]


def _write_registration(
    cfg: RunConfig, method: str, sample_id: str, moved: ScalarVolume, disp: DisplacementField, record: dict
) -> Path:
    """Write moved.vvol, disp.vvol and the method's JSON record; returns the folder."""
    odir = Path(cfg.workspace) / METHODS[method][0] / sample_id
    odir.mkdir(parents=True, exist_ok=True)
    vvol_write(odir / "moved.vvol", moved)
    vvol_write(odir / "disp.vvol", disp)
    write_json(odir / METHODS[method][1], {"sample_id": sample_id, **record})
    return odir


def cmd_register(cfg: RunConfig, sample: str | None = None, stride: int | None = None) -> dict:
    """sliding-window registration of test samples"""
    ckpt = cfg.checkpoint_path()
    if not ckpt.exists():
        raise CliError(f"checkpoint not found at {ckpt}; pass --checkpoint or run train first")
    try:
        params, model_cfg = checkpoint_load(ckpt)
    except CheckpointError as e:
        raise CliError(str(e)) from e
    if stride is not None and not 1 <= stride <= model_cfg.patch_size:
        raise CliError(f"--stride {stride} outside [1, {model_cfg.patch_size}], the checkpoint's patch size")
    manifest = _load_manifest(cfg)
    _check_patch_fits(cfg, manifest, model_cfg.patch_size, f"checkpoint {ckpt}")
    for sid, (cad_path, xct_path, _) in _select_samples(cfg, manifest, sample):
        moving = vvol_read(xct_path)
        fixed = vvol_read(cad_path)
        t_reg = time.perf_counter()
        moved, disp = sliding_register(params, model_cfg, moving, fixed, stride=stride)
        runtime = time.perf_counter() - t_reg
        record = {"runtime_sec": runtime, "patch_size": model_cfg.patch_size}
        odir = _write_registration(cfg, "learned", sid, moved, disp, record)
        print(f"{sid}: registered in {runtime:.1f}s -> {odir}")
    return {}


def cmd_baseline(cfg: RunConfig, sample: str | None = None) -> dict:
    """node-based DVC baseline on test samples"""
    manifest = _load_manifest(cfg)
    try:  # the node grid of every dataset volume, before any is read
        build_node_grid(manifest.target_dims, cfg.dvc)
    except VolumeError as e:
        raise CliError(f"dataset dims {manifest.target_dims} of {cfg.manifest_path()}: {e}") from e
    samples = []
    for sid, (cad_path, xct_path, _) in _select_samples(cfg, manifest, sample):
        moving = vvol_read(xct_path)
        fixed = vvol_read(cad_path)
        t_reg = time.perf_counter()
        disp, nodes = multiscale_dvc(moving, fixed, cfg.dvc)
        moved = warp(moving, disp)
        runtime = time.perf_counter() - t_reg
        record = {"runtime_sec": runtime, "dvc": cfg.dvc}
        odir = _write_registration(cfg, "baseline", sid, moved, disp, record)
        write_json(odir / "nodes.json", nodes)
        valid_pct = 100.0 * nodes.valid.mean()
        samples.append({
            "sample": sid,
            "nodes": int(nodes.valid.size),
            "valid_node_pct": float(valid_pct),
            "min_peak_ncc": float(nodes.correlations.min()),
            "median_peak_ncc": float(np.median(nodes.correlations)),
            "runtime_sec": runtime,
        })
        print(f"{sid}: baseline in {runtime:.1f}s, {valid_pct:.0f}% valid nodes -> {odir}")
    return {"samples": samples}


def _read_runtime(meta_file: Path) -> float:
    """runtime_sec of a register/baseline record; 0 when the record is absent."""
    runtime = read_json(meta_file).get("runtime_sec", 0.0) if meta_file.exists() else 0.0
    return float(decode(float, runtime, f"{meta_file}: runtime_sec"))


def cmd_evaluate(cfg: RunConfig, sample: str | None = None, method: str = "learned") -> dict:
    """metrics report and figure export for registered samples"""
    methods = list(METHODS) if method == "both" else [method]
    for sid, (cad_path, xct_path, gt_path) in _select_samples(cfg, _load_manifest(cfg), sample):
        _, cad_bin = otsu_threshold(vvol_read(cad_path))  # the nominal volume serves only as its mask
        xct = vvol_read(xct_path)
        _, xct_bin = otsu_threshold(xct)
        gt = vvol_read(gt_path) if gt_path.exists() else None
        for m in methods:
            _evaluate_method(cfg, sid, m, cad_bin, xct, xct_bin, gt)
    return {}


def _evaluate_method(
    cfg: RunConfig, sid: str, method: str, cad_bin: BinaryVolume, xct: ScalarVolume, xct_bin: BinaryVolume,
    gt: DisplacementField | None,
) -> None:
    """Report and figures of one method's output for sample `sid`; its volumes
    die on return, before the next method's are read."""
    mdir = Path(cfg.workspace) / METHODS[method][0] / sid
    moved_path = mdir / "moved.vvol"
    if not moved_path.exists():
        raise CliError(f"no {method} output for {sid}; expected {moved_path}")
    moved = vvol_read(moved_path)
    _, moved_bin = otsu_threshold(moved)
    disp = vvol_read(mdir / "disp.vvol")
    runtime = _read_runtime(mdir / METHODS[method][1])
    report, map_before, map_after = evaluate_pair(
        cad_bin, xct_bin, moved_bin, disp, gt_disp=gt,
        sample_id=sid, method=method, runtime_sec=runtime,
    )
    rdir = Path(cfg.workspace) / "reports" / sid / method
    rdir.mkdir(parents=True, exist_ok=True)
    write_json(rdir / "report.json", report)
    export_overlay_slices(cad_bin, xct, xct_bin, rdir, prefix="overlay_before")
    export_overlay_slices(cad_bin, moved, moved_bin, rdir, prefix="overlay_after")
    export_bdm_slices(map_before, rdir, prefix="bdm_before")
    export_bdm_slices(map_after, rdir, prefix="bdm_after")
    export_displacement_magnitude(disp, cad_bin, rdir, prefix="dispmag")
    epe = "-" if report.mean_epe_vox is None else f"{report.mean_epe_vox:.3f}"
    print(
        f"{sid} [{method}]: dice {report.dice_before_pct:.1f}% -> {report.dice_after_pct:.1f}%, "
        f"BDM0 {report.bdm_before['zero']:.1f}% -> {report.bdm_after['zero']:.1f}%, "
        f"mean EPE {epe} vox, {runtime:.1f}s -> {rdir}"
    )


def cmd_info(cfg: RunConfig) -> None:
    """print the resolved config and workspace artifacts"""
    print(json.dumps(to_json(cfg), indent=2, sort_keys=True))
    ws = Path(cfg.workspace)
    artifacts = {
        "raw samples": sorted(p.parent.name for p in ws.glob("raw/*/sample.json")),
        "manifest": cfg.manifest_path().exists(),
        "checkpoint": cfg.checkpoint_path().exists(),
        **{d: sorted(p.parent.name for p in ws.glob(f"{d}/*/moved.vvol")) for d, _ in METHODS.values()},
        "reports": sorted(str(p.relative_to(ws)) for p in ws.glob("reports/*/*/report.json")),
    }
    print(json.dumps({"artifacts": artifacts}, indent=2, sort_keys=True))


# each handler returns its results for run_log.jsonl, or None to log nothing
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


def _resolve_config(args) -> RunConfig:
    """The --config document (or {}) with each given flag written at its path, decoded once."""
    where = f"config {args.config}" if args.config else "config"
    try:
        doc = read_json(args.config) if args.config else {}
    except (OSError, ValueError) as e:
        raise CliError(f"{where}: {e}") from e
    for flag in FLAGS:
        value = getattr(args, flag.dest, None)
        if flag.path is None or value is None:
            continue
        *sections, key = flag.path.split(".")
        section = doc
        for name in sections:
            section = section.setdefault(name, {}) if isinstance(section, dict) else None
        if isinstance(section, dict):  # the decode rejects a section that is not an object
            section[key] = value
    try:
        return RunConfig.from_json(doc)
    except VolumeError as e:
        raise CliError(f"{where}: {e}") from e


def main(argv=None) -> int:
    apply_malloc_policy()
    pin_blas_threads()
    args = _build_parser().parse_args(argv)
    kwargs = {
        f.dest: getattr(args, f.dest)
        for f in FLAGS
        if f.path is None and args.command in f.commands and getattr(args, f.dest) is not None
    }
    try:
        cfg = _resolve_config(args)
        t0 = time.perf_counter()
        params = COMMANDS[args.command](cfg, **kwargs)
        if params is not None:
            _log_run(cfg, args.command, kwargs, params, time.perf_counter() - t0)
        return 0
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (VolumeError, VvolError, CheckpointError, TrainingError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
