#!/usr/bin/env python3
"""Build the dexbench runner from source and run one workload.

Run from the root of a checkout:

    python3 dexbench/run.py --workload fig2 --seed 1 --seconds 20 --trace 0

The runner is built with dune into .bench_build/ (release profile, dune
cache off), then run with the same arguments in a process of its own, so
that the CPU time it reports is its own; see dexbench/README.md for the
workloads and metrics. Exits 2 without output when the directory is not
a DeX checkout.
"""

import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
TARGET = "./dexbench/dexbench.exe"


def main():
    missing = [p for p in ("dune-project", "lib", "dexbench/dune") if not os.path.exists(p)]
    if missing:
        sys.stderr.write(
            "dexbench: run from the root of a DeX checkout (missing: %s)\n" % ", ".join(missing)
        )
        return 2
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR, "--profile", "release",
         "--cache", "disabled", TARGET],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        sys.stderr.write("dexbench: build failed\n")
        return build.returncode
    exe = os.path.join(BUILD_DIR, "default", "dexbench", "dexbench.exe")
    return subprocess.run([exe] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
