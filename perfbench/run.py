#!/usr/bin/env python3
"""Builds the benchmark driver from source and runs one workload.

Run from the repository root:

  python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The driver is built with CMake (perfbench/CMakeLists.txt compiles src/) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench. Spill run files
go to a spill/ directory beside the build and are removed afterwards.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; with --trace 0 the metrics are the end_to_end
metrics of BENCHMARK.json, with --trace 1 its per_layer metrics. Build output
and diagnostics go to standard error. Any failure exits non-zero without a
result line.
"""
import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ("narrow_unnest", "wide_skew_regroup", "biomed_spill")
# A first run builds and must end within 900 s; later runs within 180 s.
BUILD_TIMEOUT_S = 700
# Set-up, correctness checks and warm-up queries on top of --seconds.
RUN_GRACE_S = 120


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def run(cmd, timeout, stdout):
    """Runs cmd in its own process group; on timeout kills the whole group."""
    proc = subprocess.Popen(cmd, stdout=stdout, stderr=sys.stderr,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"timed out after {timeout} s: {' '.join(cmd)}")
    if proc.returncode != 0:
        fail(f"exit code {proc.returncode}: {' '.join(cmd)}")
    return out


def build(root, build_dir):
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail("library sources src/ not found; run from the repository root")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        run(["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S, sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    run(["cmake", "--build", build_dir, "--target", "perfbench_driver",
         "-j", jobs], BUILD_TIMEOUT_S, sys.stderr)
    return os.path.join(build_dir, "perfbench_driver")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    root = os.getcwd()
    try:
        with open(os.path.join(root, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    wanted = {m["name"] for m in
              spec["per_layer" if args.trace else "end_to_end"]}

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.abspath(target), "perfbench")
    driver = build(root, build_dir)

    spill_dir = os.path.join(os.path.abspath(target), "spill")
    os.makedirs(spill_dir, exist_ok=True)
    try:
        out = run([driver, "--workload", args.workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace), "--spill-dir", spill_dir],
                  args.seconds + RUN_GRACE_S, subprocess.PIPE)
    finally:
        shutil.rmtree(spill_dir, ignore_errors=True)

    lines = out.decode().strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("driver printed no JSON result")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"unexpected result keys {sorted(result)}")
    if set(result["metrics"]) != wanted:
        fail(f"metrics {sorted(result['metrics'])} differ from "
             f"BENCHMARK.json {sorted(wanted)}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
