#!/usr/bin/env python3
"""Build the perfbench program from source and run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload web --seed 1 --seconds 20 --trace 0

The Go program is built into .bench_build/ at the repository root, with the
Go build cache and temporary files kept there as well, so a run reads and
writes nothing outside the checkout. All arguments are passed through; the
last line of standard output is the JSON result (see perfbench/README.md).
"""

import os
import shutil
import subprocess
import sys


def main() -> int:
    bench = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench)
    if not os.path.isfile(os.path.join(root, "go.mod")) or not os.path.isdir(
        os.path.join(root, "internal")
    ):
        print("perfbench: the repository sources are not next to perfbench/", file=sys.stderr)
        return 2
    go = shutil.which("go")
    if go is None:
        print("perfbench: no go toolchain on PATH", file=sys.stderr)
        return 2

    build = os.path.join(root, ".bench_build")
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOTMPDIR=tmp,
        TMPDIR=tmp,
        GOFLAGS="",
        GOWORK="off",
        GOPROXY="off",
        GOTOOLCHAIN="local",
    )
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(
        [go, "build", "-o", binary, "."], cwd=bench, env=env, stdout=sys.stderr
    )
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2

    workdir = os.path.join(build, "perfbench-work")
    ran = subprocess.run([binary, "--workdir", workdir] + sys.argv[1:], cwd=root, env=env)
    return ran.returncode


if __name__ == "__main__":
    sys.exit(main())
