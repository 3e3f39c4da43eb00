#!/usr/bin/env python3
"""Build and run the fsdetect benchmark (see perfbench/README.md).

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: lint-registry, lint-scaled, serve-mixed.  The script builds
bin/fsdetect.exe and perfbench/fsbench.exe with dune (the first run in
a fresh checkout compiles them), then runs fsbench, whose last stdout
line is the JSON result.  Exit status is fsbench's: 0 when every
output check passed, 1 when one failed, 2 on bad arguments or when the
directory is not a source checkout.
"""

import os
import shutil
import signal
import subprocess
import sys

# A run must end within this many seconds once the build is done.
RUN_LIMIT_S = 170

NEEDED = ["dune-project", "bin/dune", "lib", "perfbench/dune", "perfbench/fsbench.ml"]


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    return 2


def main():
    missing = [p for p in NEEDED if not os.path.exists(p)]
    if missing:
        return fail(f"run from the root of a source checkout (missing {', '.join(missing)})")
    if shutil.which("dune"):
        dune = ["dune"]
    elif shutil.which("opam"):
        dune = ["opam", "exec", "--", "dune"]
    else:
        return fail("neither dune nor opam found on PATH")
    build = subprocess.run(
        dune
        + ["build", "--root", ".", "--cache=disabled", "./bin/fsdetect.exe", "./perfbench/fsbench.exe"],
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if build.returncode != 0:
        return fail("build failed")
    cmd = [
        os.path.join("_build", "default", "perfbench", "fsbench.exe"),
        "--fsdetect",
        os.path.join("_build", "default", "bin", "fsdetect.exe"),
    ] + sys.argv[1:]
    # Own process group, so a run over the limit is stopped together
    # with the fsdetect serve process it started.
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return fail(f"run exceeded {RUN_LIMIT_S} s")


if __name__ == "__main__":
    sys.exit(main())
