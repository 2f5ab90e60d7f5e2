#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload bulk|small|fanin_lossy \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds perfbench/main.exe from source with
dune (output under _build/, dune's shared cache off so nothing is written
outside the checkout), then runs it with the same arguments and exits with
its status. Temporary files of the compiler and the program go to
.perfbench/tmp. The last line of standard output is the JSON result. A failed
build - for instance in a directory without the lanrepro sources - exits
non-zero without printing a result.
"""

import os
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def main():
    root = os.getcwd()
    tmp = os.path.join(root, ".perfbench", "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, DUNE_CACHE="disabled", TMPDIR=tmp)
    try:
        build = subprocess.run(
            ["dune", "build", "--root", root, "./perfbench/main.exe"],
            env=env,
            stdout=sys.stderr,
            timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    exe = os.path.join(root, "_build", "default", "perfbench", "main.exe")
    try:
        return subprocess.run([exe] + sys.argv[1:], env=env, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
