#!/usr/bin/env python3
"""Builds the kkbench workload binary from this checkout's sources and runs one workload.

Usage (from the repository root):
  python3 kkbench/run.py --workload node2vec|deepwalk_churn|ppr_serve \
      --seed N --seconds S --trace 0|1

The build goes to $CARGO_TARGET_DIR when set, else .bench_build/. Build output
goes to stderr; stdout is the workload's report, ending in one JSON line. A
failed build exits non-zero without a result.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "kkbench", "-j", "4"],
        stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "kkbench")


def main():
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"kkbench: build failed: {err}", file=sys.stderr)
        return 1
    sys.stdout.flush()
    # The workload replaces this process, so its peak RSS and thread count
    # are its own, and no child outlives the benchmark.
    os.execv(binary, [binary, *sys.argv[1:], "--state-dir", build_dir])


if __name__ == "__main__":
    sys.exit(main())
