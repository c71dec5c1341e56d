#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload serve-deadline --seed 1 --seconds 15 --trace 0

The OCaml program is built with dune into .bench_build/ (with dune's shared
cache off, so the build reads and writes only inside the checkout) and then
run with the same arguments; its standard output (whose last line is the
JSON result) and its exit code are passed through.  If the build fails, the
script prints the error to standard error and exits 2 with no result.
"""

import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
TARGET = "./perfbench/main.exe"


def main():
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
         "--profile", "release", "--cache=disabled", TARGET],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if build.returncode != 0:
        sys.stderr.write(build.stdout)
        sys.stderr.write("perfbench: build failed\n")
        return 2
    exe = os.path.join(BUILD_DIR, "default", "perfbench", "main.exe")
    run = subprocess.run([exe] + sys.argv[1:], timeout=170)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
