#!/usr/bin/env python3
"""Build the RawCC benchmark from source, then run it.

Usage (from the repository root):

    python3 perfbench/run.py --workload suite16 --seed 1 --seconds 20 --trace 0

The build (CMake, into .bench_build/perfbench under the repository
root) is incremental; its output goes to stderr so that the
benchmark's last stdout line stays its JSON result.  Every argument
is passed to the benchmark driver unchanged, which validates it (see
perfbench/README.md).  A failed build exits non-zero without a result.
"""

import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"


def build() -> Path:
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", str(HERE), "-B", str(BUILD),
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", str(BUILD), "-j", jobs,
         "--target", "perfbench"],
    ]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            sys.stderr.write("perfbench: build failed: %s\n" % " ".join(cmd))
            sys.exit(1)
    return BUILD / "perfbench"


def main() -> int:
    binary = build()
    sys.stdout.flush()
    return subprocess.run([str(binary)] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
