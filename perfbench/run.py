#!/usr/bin/env python3
"""Build the tft library and the perfbench runner from this checkout, then
run one workload and pass its result line through.

    python3 perfbench/run.py --workload serve_chatty --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --self-test

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench)
under the directory this is run from; traced runs write their Chrome trace
files to its traces/ subdirectory. The last line of stdout is the runner's
JSON result. Without the library sources next to perfbench/ the build fails
and this exits non-zero without printing a result.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUNNER_TIMEOUT_S = 170


def build(build_dir):
    """Configure once, then build incrementally. Returns (ok, build log path)."""
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(log_path, "w") as log:
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            cmd = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                return False, log_path
        cmd = ["cmake", "--build", build_dir, "-j", jobs]
        ok = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode == 0
    return ok, log_path


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    ap.add_argument("--self-test", action="store_true",
                    help="build and run the benchmark's own tests instead of a workload")
    args = ap.parse_args()
    if not args.self_test and not args.workload:
        ap.error("--workload is required")

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.abspath(os.path.join(target, "perfbench"))
    ok, log_path = build(build_dir)
    if not ok:
        with open(log_path) as log:
            sys.stderr.write(log.read()[-4000:])
        sys.stderr.write("perfbench: build failed (full log: %s)\n" % log_path)
        return 1

    if args.self_test:
        return subprocess.run([os.path.join(build_dir, "perfbench_tests")]).returncode

    trace_dir = os.path.join(build_dir, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    cmd = [os.path.join(build_dir, "perfbench_runner"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds), "--trace", args.trace,
           "--trace-dir", trace_dir]
    try:
        return subprocess.run(cmd, timeout=RUNNER_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: runner exceeded %d s and was killed\n" % RUNNER_TIMEOUT_S)
        return 1


if __name__ == "__main__":
    sys.exit(main())
