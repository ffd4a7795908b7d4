#!/usr/bin/env python3
"""Builds and runs one workload of the hpamg benchmark.

    python3 perfbench/run.py --workload suite_cold --seed 1 --seconds 25 --trace 0

Run from the repository root. The library is built from ../src together
with the benchmark driver (CMake, Release) into $CARGO_TARGET_DIR/perfbench,
or .bench_build/perfbench when that variable is unset. Every run first
rebuilds (a no-op when nothing changed) and runs the benchmark's self-tests,
then runs the workload in a fresh process with its pinned OpenMP thread
count and the library's own observability layers off. The last line of
stdout is the JSON result; the exit code is the driver's (0 = every answer
correct).
"""
import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# OpenMP threads per computing thread: two per solve on the single-node
# workloads; one per service worker and one per simmpi rank.
WORKLOADS = {"suite_cold": 2, "rhs_stream": 2, "service_mix": 1, "dist_fgmres": 1}
RUN_TIMEOUT_S = 170


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for cmd in steps:
        # Build output goes to stderr: stdout's last line is the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build failed: " + " ".join(cmd))
            return False
    return True


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if not 1 <= args.seconds <= 600:
        ap.error("--seconds must be in [1, 600]")

    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build", "perfbench")
    if not build(build_dir):
        return 3
    selftest = os.path.join(build_dir, "perfbench_selftest")
    if subprocess.run([selftest], stdout=sys.stderr, stderr=sys.stderr,
                      timeout=RUN_TIMEOUT_S).returncode:
        log("self-tests failed")
        return 3

    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("HPAMG_", "OMP_", "GOMP_"))}
    env["OMP_NUM_THREADS"] = str(WORKLOADS[args.workload])
    out_dir = os.path.join(build_dir, "traces")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [os.path.join(build_dir, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out-dir", out_dir]
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("workload timed out after %d s" % RUN_TIMEOUT_S)
        return 3
    lines = proc.stdout.rstrip("\n").splitlines()
    if proc.returncode not in (0, 1) or not lines:
        sys.stderr.write(proc.stdout)
        log("perfbench exited with %d and no result" % proc.returncode)
        return proc.returncode or 3

    result = json.loads(lines[-1])
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != expected_metrics(args.trace):
        log("reported metrics do not match BENCHMARK.json")
        return 3
    for line in lines[:-1]:
        print(line)
    print("wall_s: %.1f" % (time.monotonic() - start))
    print(lines[-1], flush=True)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
