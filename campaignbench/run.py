#!/usr/bin/env python3
"""Build the campaign benchmark from source and run one workload.

Run from the root of a checkout:

    python3 campaignbench/run.py --workload paper-exact --seed 1 --seconds 20 --trace 0

The Go package in this directory is built against the checkout it sits in
(its go.mod replaces the mavfi module with the parent directory), so a
directory that holds the benchmark without the repository fails to build and
this script exits non-zero without printing a result. Every file the build
and the run write stays under the build directory: $CARGO_TARGET_DIR when
set, else .bench_build, relative to the checkout root. The last line of
standard output is the benchmark's JSON result; progress goes to standard
error. `run.py --build-only` builds without running.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    build = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(
        os.environ,
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOMODCACHE=os.path.join(build, "gopath", "pkg", "mod"),
        # The go command keeps its telemetry counters under the user
        # configuration directory; keep them inside the build directory too.
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        TMPDIR=os.path.join(build, "tmp"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="",
        GOWORK="off",
    )
    for d in ("gocache", "gopath", "config", "tmp", "bin", "work"):
        os.makedirs(os.path.join(build, d), exist_ok=True)
    binary = os.path.join(build, "bin", "campaignbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env)
    if built.returncode != 0:
        print("campaignbench: build failed", file=sys.stderr)
        return built.returncode or 1
    if sys.argv[1:] == ["--build-only"]:
        return 0
    ran = subprocess.run(
        [binary, *sys.argv[1:], "-scratch", os.path.join(build, "work")],
        cwd=ROOT,
        env=env,
    )
    return ran.returncode


if __name__ == "__main__":
    sys.exit(main())
