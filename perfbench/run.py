#!/usr/bin/env python3
"""Build the benchmark from source and run one measurement.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The executable is built with dune into _build/ and receives every
argument unchanged; its standard output (the last line is the JSON
result) and exit code pass through. Build messages go to standard
error. Outside a checkout the build fails and no result is printed.
"""

import os
import subprocess
import sys

EXE = "./perfbench/perfbench.exe"


def main():
    root = os.getcwd()
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("perfbench: no dune-project and lib/ here; run from the root "
              "of a checkout", file=sys.stderr)
        return 2
    env = dict(os.environ)
    # keep every build artifact inside the checkout
    env.setdefault("DUNE_CACHE", "disabled")
    # the run manifest asks git for the revision; never look above the
    # checkout for a repository
    env["GIT_CEILING_DIRECTORIES"] = os.path.dirname(root)
    build = subprocess.run(["dune", "build", "--root", ".", EXE],
                           env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    exe = os.path.join("_build", "default", "perfbench", "perfbench.exe")
    return subprocess.run([exe] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
