#!/usr/bin/env python3
"""Build and run the repository's benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

It builds perfbench/bench.exe and bin/jigsaw_daemon.exe from source
(dune, release profile, into _build/), then runs the benchmark with the
same arguments.  The benchmark's last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.
Outside a checkout (no dune-project, lib/ or bin/) it exits with
status 2 and prints no result.
"""

import os
import subprocess
import sys

BENCH = os.path.join("_build", "default", "perfbench", "bench.exe")
DAEMON = os.path.join("_build", "default", "bin", "jigsaw_daemon.exe")

# A run must end within 180 s; the benchmark itself keeps to --seconds
# plus one iteration, so this only guards against a hang.
RUN_LIMIT_S = 170


def main():
    missing = [p for p in ("dune-project", "lib", "bin") if not os.path.exists(p)]
    if missing:
        sys.stderr.write(
            "perfbench: run from the root of a checkout (missing: %s)\n"
            % ", ".join(missing)
        )
        return 2
    # No shared build cache: everything the build writes stays in _build.
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--profile", "release",
         "./perfbench/bench.exe", "./bin/jigsaw_daemon.exe"],
        stdout=sys.stderr, env=env,
    )
    if build.returncode != 0:
        sys.stderr.write("perfbench: build failed\n")
        return build.returncode
    proc = subprocess.Popen([BENCH, *sys.argv[1:], "--daemon", DAEMON])
    try:
        return proc.wait(timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_LIMIT_S)
        return 3


if __name__ == "__main__":
    sys.exit(main())
