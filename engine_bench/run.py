#!/usr/bin/env python3
"""Build the engine benchmark from source and run one workload.

    python3 engine_bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds
liboptimus plus the runner into .bench_build/ (build output goes to
stderr); later runs only re-check the build. The runner's stdout,
whose last line is the JSON result, is passed through unchanged, and
its exit code is returned. A failed build exits non-zero without a
result.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def build():
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "-j", "4"], check=True,
                   stdout=sys.stderr)


def main():
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"engine_bench: build failed: {e}", file=sys.stderr)
        return 1
    exe = os.path.join(BUILD, "engine_bench")
    proc = subprocess.run([exe, "--root", ROOT] + sys.argv[1:])
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
