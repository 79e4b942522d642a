#!/usr/bin/env python3
"""Build the benchmark from source, then run it.

Usage (from the repository root):
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The first call configures and builds perfbench/ (and the library it
includes from the repository) into .bench_build/ in Release mode; later
calls only rebuild what changed.  Build output goes to standard error, so
the last line of standard output is the benchmark's JSON result.  The spans
a traced run (--trace 1) records land in .bench_build/spans.jsonl.  The
exit code is the benchmark's, or 1 when the build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def build():
    """Configure (once) and build the benchmark; True on success."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", "4"])
    for step in steps:
        result = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if result.returncode != 0:
            return False
    return True


def main():
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    command = [os.path.join(BUILD, "perfbench"), *sys.argv[1:],
               "--spans-out", os.path.join(BUILD, "spans.jsonl")]
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
