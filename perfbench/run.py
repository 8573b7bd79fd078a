#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark (perfbench/e2e.cc).

Usage, from the repository root:

    python3 perfbench/run.py --workload search|serve-tenants|serve-partitioned|all \
        --seed N --seconds S --trace 0|1

`all` runs the three workloads in turn.

The first run configures and builds the library plus the benchmark binary
under .bench_build/perfbench (later runs only re-check the build). Build
output goes to stderr; stdout carries the benchmark's report, whose last
line is one JSON object with the keys correct, attempted, failed, metrics.
Exit status is non-zero when the build fails, a correctness check fails or
the run times out.
"""
import argparse
import os
import subprocess
import sys

WORKLOADS = ("search", "serve-tenants", "serve-partitioned")
RUN_TIMEOUT_S = 175
BUILD_JOBS = 4


def build(root, build_dir, env):
    source = os.path.join(root, "perfbench")
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", source, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench_e2e",
                  "-j", str(BUILD_JOBS)])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          env=env).returncode:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    build_dir = os.path.join(root, ".bench_build", "perfbench")
    # Compiler and program temporaries stay inside the checkout too.
    env = dict(os.environ, TMPDIR=os.path.join(build_dir, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    if not build(root, build_dir, env):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    status = 0
    for workload in workloads:
        cmd = [os.path.join(build_dir, "perfbench_e2e"),
               "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", os.path.join(build_dir, "work")]
        try:
            status = subprocess.run(cmd, timeout=RUN_TIMEOUT_S,
                                    env=env).returncode or status
        except subprocess.TimeoutExpired:
            print("perfbench: %s run timed out" % workload, file=sys.stderr)
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
