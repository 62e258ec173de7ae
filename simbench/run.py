#!/usr/bin/env python3
"""Build the simbench Go program from source and run it.

Usage (from anywhere; paths resolve against the repository root):

    python3 simbench/run.py --workload paper-suite --seed 1 --seconds 30 --trace 0

Every argument is passed through to the simbench binary (see main.go).
The build keeps all of its state -- the binary, the Go build cache, the
module cache, temporary files -- under the build directory:
$CARGO_TARGET_DIR when set, else .bench_build, relative to the
repository root. Traced runs write their spans to <build directory>/spans.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(msg):
    print("simbench: " + msg, file=sys.stderr)
    sys.exit(2)


def main():
    if not os.path.isfile(os.path.join(ROOT, "go.mod")) or not os.path.isdir(
        os.path.join(ROOT, "internal", "core")
    ):
        fail("no simulator sources next to simbench/ (need go.mod and internal/)")
    go = shutil.which("go")
    if go is None:
        fail("go toolchain not found on PATH")

    build = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build = os.path.join(ROOT, build)
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOTMPDIR=tmp,
        TMPDIR=tmp,
        GOCACHE=os.path.join(build, "go-cache"),
        GOPATH=os.path.join(build, "go-path"),
        GOMODCACHE=os.path.join(build, "go-path", "pkg", "mod"),
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOENV="off",
        GOFLAGS="-mod=mod",
        GOPROXY="off",
        GOTOOLCHAIN="local",
        GOWORK="off",
    )
    binary = os.path.join(build, "simbench")
    proc = subprocess.run([go, "build", "-o", binary, "."], cwd=HERE, env=env)
    if proc.returncode != 0:
        fail("build failed")
    args = [binary, "-spans", os.path.join(build, "spans")] + sys.argv[1:]
    sys.exit(subprocess.run(args, cwd=ROOT).returncode)


if __name__ == "__main__":
    main()
