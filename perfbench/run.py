#!/usr/bin/env python3
"""The repository benchmark: builds the driver from source, runs one workload
and prints one JSON result line.

Usage (from the repository root):
  python3 perfbench/run.py --workload small_coll|bulk_hier|bfs_rgg \
      --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --self-test

--trace 0 runs the untraced build and reports the end-to-end metrics;
--trace 1 runs the traced build (-Wl,--wrap spans, counting operator new)
and reports the per-layer metrics. The last line of standard output is
  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
and the line before it states the machine shape next to figures kept for
the record (warm-up effect, every mix slot's median on both sides). The
build lives in .bench_build/perfbench, span logs of traced runs in
.bench_out/.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
OUT = ROOT / ".bench_out"
BUILD_TYPE = "Release"
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    """Configures once and brings the build up to date; output to stderr."""
    if not (BUILD / "CMakeCache.txt").exists():
        BUILD.mkdir(parents=True, exist_ok=True)
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD), f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"] + gen
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            fail("configure failed", 1)
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", str(BUILD), "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        fail("build failed", 1)


def machine_shape():
    compiler = "unknown"
    cache = BUILD / "CMakeCache.txt"
    for line in cache.read_text().splitlines():
        if line.startswith("CMAKE_CXX_COMPILER:"):
            exe = line.split("=", 1)[1]
            try:
                out = subprocess.run([exe, "--version"], capture_output=True, text=True)
                compiler = out.stdout.splitlines()[0]
            except (OSError, IndexError):
                compiler = exe
    return {"nproc": len(os.sched_getaffinity(0)), "compiler": compiler, "build_type": BUILD_TYPE}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="show that every output check rejects a corrupted result")
    args = ap.parse_args()

    knobs = sorted(k for k in os.environ if k.startswith("XMPI_"))
    if knobs:
        fail("refusing to run with substrate knobs set (" + ", ".join(knobs) +
             "): the benchmark measures the defaults; unset them first")

    build()
    if args.self_test:
        sys.exit(subprocess.run([str(BUILD / "perfbench_selftest")]).returncode)
    if not args.workload:
        fail("--workload is required")

    exe = BUILD / ("perfbench_traced" if args.trace else "perfbench")
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    if args.trace:
        OUT.mkdir(exist_ok=True)
        cmd += ["--spans", str(OUT / f"spans_{args.workload}_seed{args.seed}.jsonl")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s", 1)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"driver exited with code {proc.returncode}", 1)
    res = json.loads(lines[-1])
    for err in res["errors"]:
        print(f"perfbench: check failed: {err}", file=sys.stderr)
    metrics = res["per_layer" if args.trace else "end_to_end"]
    details = {k: round(v["value"], 3) for k, v in res["details"].items()}
    print(json.dumps({"workload": args.workload, "seed": args.seed, "machine": machine_shape(),
                      "details": details}))
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
