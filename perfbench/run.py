#!/usr/bin/env python3
"""Run one perfbench workload from the root of a xaos checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the server (bin/xaos.exe) and the benchmark driver
(perfbench/xbench.exe) from source in release mode, then runs the driver
with the same arguments. The driver's last line of standard output is
the JSON result; build output goes to standard error. The exit status is
the driver's, or non-zero when the checkout cannot be built.
"""

import os
import shutil
import subprocess
import sys

TARGETS = ["./bin/xaos.exe", "./perfbench/xbench.exe"]
DRIVER = os.path.join("_build", "default", "perfbench", "xbench.exe")


def dune_command():
    if shutil.which("dune"):
        return ["dune"]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    return None


def main():
    if not (os.path.isfile("dune-project")
            and os.path.isfile(os.path.join("bin", "xaos.ml"))):
        sys.stderr.write("perfbench: run from the root of a xaos checkout\n")
        return 2
    dune = dune_command()
    if dune is None:
        sys.stderr.write("perfbench: dune not found\n")
        return 2
    build = subprocess.run(
        dune + ["build", "--root", ".", "--profile", "release"] + TARGETS,
        stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        sys.stderr.write("perfbench: build failed\n")
        return 1
    code = subprocess.run([DRIVER] + sys.argv[1:]).returncode
    return code if code >= 0 else 1


if __name__ == "__main__":
    sys.exit(main())
