#!/usr/bin/env python3
"""Build and run the perfbench benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload kv-write --seed 1 --seconds 10 --trace 0

The Go build cache, the binary and transient device images go under the
build directory ($CARGO_TARGET_DIR, default .bench_build); traced runs
write their spans under perfbench/traces. Nothing is written outside the
checkout. The last line of output is the result JSON; the exit code is
non-zero on a failed build, a failed operation or a verification mismatch.
"""

import argparse
import os
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    build = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(root, ".bench_build"))
    for d in ("gocache", "gomodcache", "gotmp", "config"):
        os.makedirs(os.path.join(build, d), exist_ok=True)
    env = dict(
        os.environ,
        GOCACHE=os.path.join(build, "gocache"),
        GOMODCACHE=os.path.join(build, "gomodcache"),
        GOTMPDIR=os.path.join(build, "gotmp"),
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOFLAGS="-mod=readonly",
        GOWORK="off",
        GOPROXY="off",
        GOTOOLCHAIN="local",
    )
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(
        ["go", "build", "-buildvcs=false", "-o", binary, "."],
        cwd=here, env=env, stdout=sys.stderr,
    )
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return built.returncode or 1

    commit = "unknown"
    if os.path.exists(os.path.join(root, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True,
            ).stdout.strip() or commit
        except OSError:
            pass

    # Replace this process with the benchmark, so whoever started run.py
    # waits on (and can stop) the benchmark itself.
    os.chdir(root)
    os.execv(binary, [
        binary,
        "-workload", args.workload,
        "-seed", str(args.seed),
        "-seconds", str(args.seconds),
        "-trace", str(args.trace),
        "-scratch", os.path.join(build, "dev"),
        "-tracedir", os.path.join(here, "traces"),
        "-commit", commit,
    ])


if __name__ == "__main__":
    sys.exit(main())
