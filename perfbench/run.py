#!/usr/bin/env python3
"""Runs the poprank benchmark on one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run from the root of a checkout.  The script builds the perfbench package
(perfbench/CMakeLists.txt: the library from src/ plus the driver) in
Release mode under the build directory -- $CARGO_TARGET_DIR if set, else
.bench_build -- runs the statistics self-test, then runs the driver and
passes its output through.  The last line of stdout is the driver's JSON
result.  Build output goes to stderr.  Exits non-zero, without a result,
if the build, the self-test or the driver fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DRIVER_TIMEOUT_S = 175


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build(build_root, env):
    bdir = os.path.join(build_root, "perfbench")
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        cfg = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cfg += ["-G", "Ninja"]
        if subprocess.run(cfg, stdout=sys.stderr, stderr=sys.stderr,
                          env=env).returncode:
            shutil.rmtree(bdir, ignore_errors=True)
            fail("configure failed")
    jobs = str(min(os.cpu_count() or 1, 4))
    cmd = ["cmake", "--build", bdir, "-j", jobs, "--target", "perfbench_driver",
           "perfbench_selftest"]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                      env=env).returncode:
        fail("build failed")
    return bdir


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_root = os.path.join(ROOT, build_root)
    # Keep the compiler's and the driver's temporary files in the checkout.
    env = dict(os.environ, TMPDIR=os.path.join(build_root, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    bdir = build(build_root, env)

    selftest = subprocess.run([os.path.join(bdir, "perfbench_selftest")],
                              stdout=sys.stderr, stderr=sys.stderr, env=env)
    if selftest.returncode:
        fail("statistics self-test failed")

    # Cache directories and the trace file live under the build root.
    out_dir = os.path.join(build_root, "perfbench-runs",
                           "%s-seed%d-pid%d" % (args.workload, args.seed,
                                                os.getpid()))
    trace_dir = os.path.join(build_root, "perfbench-traces")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [os.path.join(bdir, "perfbench_driver"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out-dir", out_dir]
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=DRIVER_TIMEOUT_S, env=env)
    except subprocess.TimeoutExpired:
        shutil.rmtree(out_dir, ignore_errors=True)
        fail("driver exceeded %d s" % DRIVER_TIMEOUT_S)
    finally:
        # Keep the trace file; drop the run's cache directories.
        if os.path.isdir(out_dir):
            for name in os.listdir(out_dir):
                if name.startswith("trace-"):
                    os.makedirs(trace_dir, exist_ok=True)
                    os.replace(os.path.join(out_dir, name),
                               os.path.join(trace_dir, name))
                    print("trace file: %s" % os.path.join(trace_dir, name),
                          file=sys.stderr)
            shutil.rmtree(out_dir, ignore_errors=True)

    lines = proc.stdout.rstrip("\n").split("\n")
    body = lines[:-1]
    if body:
        print("\n".join(body))
    if proc.returncode != 0:
        fail("driver exited with %d" % proc.returncode)
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        fail("driver printed no JSON result")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("driver result has unexpected keys: %s" % sorted(result))
    print("driver wall %.3f s" % (time.monotonic() - t0))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
