#!/usr/bin/env python3
"""Build the perfbench Go program from source and run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload replay --seed 1 --seconds 12 --trace 0

The build keeps every artifact inside the checkout: the Go build cache
and the binary under .bench_build/ (or $CARGO_TARGET_DIR when set), the
result and span files under .bench_out/. All arguments are passed to the
benchmark program, whose last line of output is the JSON result. A failed
build exits non-zero without printing a result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_env(build_dir):
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build_dir, "gocache"),
        GOPATH=os.path.join(build_dir, "gopath"),
        # Keep the toolchain's own config and telemetry files in the checkout.
        XDG_CONFIG_HOME=os.path.join(build_dir, "config"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="",
        GOWORK="off",
        CGO_ENABLED="0",
    )
    return env


def commit():
    """The checked-out revision, when the checkout is a git work tree."""
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, check=True,
        )
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip() or "unknown"


def main():
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_dir):
        build_dir = os.path.join(ROOT, build_dir)
    os.makedirs(build_dir, exist_ok=True)
    binary = os.path.join(build_dir, "perfbench")
    env = build_env(build_dir)
    built = subprocess.run(
        ["go", "build", "-trimpath", "-o", binary, "."],
        cwd=HERE, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
    )
    if built.returncode != 0:
        sys.stderr.write("perfbench: build failed:\n" + built.stderr)
        return 2
    args = [binary, "--out", os.path.join(ROOT, ".bench_out"), "--commit", commit()] + sys.argv[1:]
    return subprocess.run(args, cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
