#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload ranked_cold --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

The first call configures and builds a Release tree under
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); later calls
only re-check it. Build output goes to standard error, so the last line of
standard output is the benchmark's JSON result. See perfbench/README.md.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("ranked_cold", "ranked_hot", "live_feeds", "ingest")
BUILD_JOBS = "4"


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build(root, build_dir, target):
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail("no library sources under %s/src; run from the repository root"
             % root)
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", bench_dir, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.call(configure, stdout=sys.stderr) != 0:
            fail("cmake configure failed")
    command = ["cmake", "--build", build_dir, "--target", target,
               "-j", BUILD_JOBS]
    if subprocess.call(command, stdout=sys.stderr) != 0:
        fail("build failed")
    return os.path.join(build_dir, target)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the checks' self-tests")
    args = parser.parse_args()

    root = os.getcwd()
    build_root = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build_dir = os.path.join(build_root, "perfbench")

    if args.self_test:
        binary = build(root, build_dir, "svq_perfbench_checks_test")
        sys.exit(subprocess.call(
            [binary, os.path.join(build_root, "perfbench-selftest")]))

    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    binary = build(root, build_dir, "svq_perfbench")
    work_dir = os.path.join(build_root, "perfbench-work",
                            "%s-%d" % (args.workload, os.getpid()))
    out_dir = os.path.join(build_root, "perfbench-out")
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--work-dir", work_dir, "--out-dir", out_dir]
    sys.stdout.flush()
    sys.exit(subprocess.call(command))


if __name__ == "__main__":
    main()
