#!/usr/bin/env python3
"""Build and run the repo benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload paper-suite --seed 1 --seconds 20 --trace 0

The first run configures and builds perfbench/ (which compiles ../src)
in Release mode under $CARGO_TARGET_DIR (default .bench_build); later
runs rebuild only what changed. Build output goes to stderr, so the
last line of stdout is the benchmark's JSON result. perfbench/README.md
documents the workloads and metrics.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Each run must end well inside three minutes.
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configure once, then build the benchmark binary; False on failure."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target",
                  "kagura_perfbench", "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                          cwd=ROOT).returncode != 0:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 3600:
        parser.error("--seed must be >= 0 and --seconds in 1..3600")

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("run.py: simulator sources (src/) not found next to "
              "perfbench/", file=sys.stderr)
        return 2

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target)
    build_dir = os.path.join(target, "perfbench-build")
    work_dir = os.path.join(target, "perfbench-work")
    os.makedirs(work_dir, exist_ok=True)
    if not build(build_dir):
        print("run.py: build failed", file=sys.stderr)
        return 3

    cmd = [os.path.join(build_dir, "kagura_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--root", ROOT, "--work", work_dir]
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("run.py: benchmark exceeded %d s" % RUN_TIMEOUT_S,
              file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
