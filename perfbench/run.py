#!/usr/bin/env python3
"""Builds and runs the repo benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test [--seed N]

Run from anywhere inside a checkout: the script works from the checkout
root, builds perfbench/ (which compiles the simulator libraries from src/)
into .bench_build/perfbench with CMake in Release mode, then runs the
benchmark binary with the same arguments. Its last line of standard output
is the result JSON. Build output goes to standard error. Exits non-zero,
printing no result, when the build or the run fails.
"""

import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")


def build(env):
    """Configures (once) and builds the benchmark; returns True on success."""
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.call(configure, stdout=sys.stderr, env=env) != 0:
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            return False
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    command = ["cmake", "--build", BUILD_DIR, "--target", "perfbench", "-j", jobs]
    return subprocess.call(command, stdout=sys.stderr, env=env) == 0


def git_revision():
    """HEAD of the checkout at ROOT, or "none" when ROOT is not a git checkout."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or \
            os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return "none"
    return lines[1]


def main():
    os.chdir(ROOT)
    tmp = os.path.join(BUILD_ROOT, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp, PERFBENCH_GIT_REVISION=git_revision())
    if not build(env):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    return subprocess.call([BINARY] + sys.argv[1:], env=env)


if __name__ == "__main__":
    sys.exit(main())
