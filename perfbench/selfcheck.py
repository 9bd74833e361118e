"""Toy-size self-check of the benchmark harness; takes well under a minute.

    python3 perfbench/selfcheck.py

Runs every workload at toy scale, untraced and traced, and requires for each
run: exit code 0, every output check passed, no failed operation, and a
result that names exactly the metrics of BENCHMARK.json, each with its unit
(the end-to-end ones untraced, the per-layer ones traced). It also requires
that the benchmark, copied without the program's sources, exits non-zero and
prints no result. Exits 0 when all of that holds.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("train_p32", "register_w64", "synth_dvc")


def run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(cwd / HERE.name / "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
        problems.append(f"BENCHMARK.json workloads {spec['workloads']} differ from {WORKLOADS}")
    for workload in WORKLOADS:
        for trace in (0, 1):
            before = len(problems)
            p = run(ROOT, "--workload", workload, "--seed", "0", "--seconds", "1",
                    "--trace", str(trace), "--scale", "toy")
            where = f"{workload} --trace {trace}"
            if p.returncode != 0:
                problems.append(f"{where}: exit code {p.returncode}\n{p.stderr[-2000:]}")
                continue
            result = json.loads(p.stdout.strip().splitlines()[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{where}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{where}: correct {result['correct']}, {result['failed']} of "
                                f"{result['attempted']} operations failed\n{p.stderr[-2000:]}")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want[trace]:
                diff = set(got.items()) ^ set(want[trace].items())
                problems.append(f"{where}: metrics differ from BENCHMARK.json in {sorted(diff)}")
            print(f"{where}: {'ok' if len(problems) == before else 'FAILED'}", flush=True)

    bare = ROOT / ".perfbench_work" / f"bare-{os.getpid()}"
    try:
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        p = run(bare, "--workload", "synth_dvc", "--seed", "0", "--seconds", "1", "--trace", "0")
        if p.returncode == 0 or p.stdout.strip():
            problems.append(f"without sources: exit code {p.returncode}, stdout {p.stdout!r}")
        else:
            print("without sources: fails as it should", flush=True)
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for msg in problems:
        print(f"FAIL {msg}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
