"""Benchmark of voxcorr: training, sliding-window registration and the classic
DVC pipeline, each timed end to end through the CLI.

    python3 perfbench/run.py --workload train_p32 --seed 0 --seconds 20 --trace 0

Run from the root of a source tree; the program is imported from ./src. Each
run sets up its workload several times in child processes, runs one untimed
warm-up operation (not for register_w64), then repeats the operation in a
closed loop, one at a time, until --seconds have passed, and checks the
outputs. The last line of stdout is one JSON object: correct, attempted,
failed and the metrics, which are the end-to-end metrics with --trace 0 and
the per-layer metrics of a traced run with --trace 1. Progress and the
environment go to stderr.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"
BLAS_THREADS = len(os.sched_getaffinity(0))
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _log(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def _parse(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=["train_p32", "register_w64", "synth_dvc"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="length of the timed loop")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--scale", choices=["full", "toy"], default="full",
                    help="toy: the same operations and checks at seconds-long sizes")
    ap.add_argument("--setup-into", help=argparse.SUPPRESS)  # child mode: set up only
    return ap.parse_args(argv)


def _import_program():
    """Put the checkout's ./src first on the path; fail if voxcorr is not there."""
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    src = ROOT / "src"
    if not (src / "voxcorr" / "cli.py").is_file():
        _log(f"no voxcorr sources under {src}; run from the root of a source tree")
        sys.exit(2)
    sys.path.insert(0, str(src))
    from voxcorr import cli  # noqa: F401  (imports every module the probes patch)

    import voxcorr
    if Path(voxcorr.__file__).resolve().parent != (src / "voxcorr").resolve():
        _log(f"imported voxcorr from {voxcorr.__file__}, not from {src}")
        sys.exit(2)
    return cli


def _cli_runner(cli):
    def run(argv):
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(argv)
        if rc != 0:
            raise RuntimeError(f"voxcorr {' '.join(argv)} exited with {rc}")
    return run


def _environment(np) -> dict:
    import scipy
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        openblas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "process_threads": len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else None,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": openblas,
        "python": sys.version.split()[0],
    }


def main(argv=None) -> int:
    args = _parse(argv)
    cli = _import_program()
    import numpy as np
    import spans as tr_mod
    import workloads as wl

    if args.setup_into:
        w = wl.WORKLOADS[args.workload](Path(args.setup_into), args.seed, wl.SCALES[args.scale])
        w.setup(_cli_runner(cli))
        return 0

    env = _environment(np)
    _log(f"environment {json.dumps(env, sort_keys=True)}")
    ws = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    w = wl.WORKLOADS[args.workload](ws, args.seed, wl.SCALES[args.scale])
    tracer = tr_mod.Tracer()
    if args.trace:
        tr_mod.install(tracer)
    run = _cli_runner(cli)
    correct, attempted, failed = True, 0, 0
    walls, cpus, setups, digests = [], [], [], []
    try:
        inputs = set()
        for _ in range(w.setup_repeats):
            shutil.rmtree(ws, ignore_errors=True)
            ws.mkdir(parents=True)
            child = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
                     "--seed", str(args.seed), "--seconds", "0", "--scale", args.scale, "--setup-into", str(ws)]
            t0 = time.perf_counter()
            subprocess.run(child, check=True, stdout=subprocess.DEVNULL)
            setups.append(time.perf_counter() - t0)
            inputs.add(wl.inputs_digest(ws))
        if len(inputs) != 1:
            _log("set-up is not deterministic: the same seed built different inputs")
            correct = False

        def one_op(traced_index=None):
            nonlocal attempted, failed
            attempted += 1
            tracer.op = traced_index
            w0, c0 = time.perf_counter(), time.process_time()
            try:
                for argv in w.op():
                    run(argv)
            except Exception:  # a failed operation is counted, and the run goes on
                failed += 1
                _log("operation failed:\n" + traceback.format_exc())
                return None
            finally:
                tracer.op = None
            wall, cpu = time.perf_counter() - w0, time.process_time() - c0
            digests.append(w.record())
            return wall, cpu

        if w.warmup:
            one_op()
        t_start = time.perf_counter()
        while not walls or time.perf_counter() - t_start < args.seconds:
            r = one_op(len(walls))
            if r is None:
                if time.perf_counter() - t_start >= args.seconds:
                    break
                continue
            walls.append(r[0])
            cpus.append(r[1])
            _log(f"op {len(walls)}: {r[0]:.3f} s wall, {r[1]:.3f} s cpu")
        peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        if len(set(digests)) > 1:
            _log("operations on the same inputs wrote different outputs")
            correct = False
        try:
            quality = w.check()
        except Exception:  # a failed check makes the run incorrect; the result is still printed
            _log("check failed:\n" + traceback.format_exc())
            correct, quality = False, {}
    finally:
        shutil.rmtree(ws, ignore_errors=True)

    if args.trace:
        layers = tr_mod.layer_metrics(tracer, list(range(len(walls)))) if walls else {}
        metrics = {k: {"value": v, "unit": tr_mod.LAYER_METRICS[k][0]} for k, v in layers.items()}
        for k, (unit, _better) in wl.QUALITY_METRICS.items():
            metrics[k] = {"value": quality.get(k, 0.0), "unit": unit}
        OUT.mkdir(exist_ok=True)
        trace_file = OUT / f"trace-{args.workload}-{args.seed}.json"
        tr_mod.dump(tracer, trace_file)
        _log(f"spans written to {trace_file}")
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "op_s": {"value": statistics.median(walls) if walls else 0.0, "unit": "s"},
            "cpu_s": {"value": statistics.median(cpus) if cpus else 0.0, "unit": "s"},
            "peak_mib": {"value": peak_mib, "unit": "MiB"},
        }
    summary = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "environment": env,
               "setup_s": setups, "op_s": walls, "cpu_s": cpus,
               "accuracy": getattr(w, "accuracy", None)}
    _log(f"summary {json.dumps(summary, sort_keys=True)}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
