#!/usr/bin/env python3
"""Builds the benchmark program from source, then runs one workload.

Usage (from the repository root):

  python3 perfbench/run.py --workload paper_pipeline --seed 1 \
      --seconds 20 --trace 0

The program is compiled into .bench_build/ under the current directory on
first use (later runs rebuild incrementally). Build output goes to stderr so
that the last line of stdout is the program's JSON result. Every argument
is passed through to the program; see perfbench/README.md for the workloads
and metrics.
"""

import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
TARGET = "eos_perfbench"
RUN_TIMEOUT_S = 175


def run_quiet(cmd):
    """Runs a build step with its output on stderr; True on success."""
    result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    return result.returncode == 0


def build(bench_dir):
    cache = os.path.join(BUILD_DIR, "CMakeCache.txt")
    if not os.path.exists(cache):
        if not run_quiet(["cmake", "-S", bench_dir, "-B", BUILD_DIR,
                          "-DCMAKE_BUILD_TYPE=Release"]):
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    return run_quiet(["cmake", "--build", BUILD_DIR, "-j", jobs,
                      "--target", TARGET])


def git_revision(root):
    if not os.path.isdir(os.path.join(root, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "--short=12",
                              "HEAD"], capture_output=True, text=True,
                             timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    bench_dir = os.path.relpath(os.path.dirname(os.path.abspath(__file__)))
    if not build(bench_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    env = dict(os.environ)
    # The lock-order detector is a debugging aid with its own cost; the
    # benchmark measures the production configuration.
    env.pop("EOS_DEADLOCK_DETECT", None)
    env["EOS_PERFBENCH_GIT_REV"] = git_revision(os.getcwd())
    binary = os.path.join(BUILD_DIR, TARGET)
    proc = subprocess.Popen([binary] + sys.argv[1:], env=env)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: benchmark program timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
