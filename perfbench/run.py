#!/usr/bin/env python3
"""Build and run the repository benchmark from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/perfbench.exe from source (dune, release profile, into
_build_perfbench/ so a development _build/ is left alone), runs it with
the given arguments and relays its output: the last stdout line is the
result object.  Exits non-zero without a result when the checkout has no
library to build against or the build fails.
"""

import os
import subprocess
import sys

BUILD_DIR = "_build_perfbench"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "perfbench.exe")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("run from the root of a repository checkout (dune-project and lib/ missing)")
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
             "--profile", "release", "--cache=disabled",
             "./perfbench/perfbench.exe"],
            stdout=sys.stderr, env=env, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build did not complete: %s" % e)
    if build.returncode != 0:
        fail("build failed (exit %d)" % build.returncode)
    try:
        run = subprocess.run([EXE] + sys.argv[1:], timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("run did not complete: %s" % e)
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
