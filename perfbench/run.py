#!/usr/bin/env python3
"""Builds the stc binary and the perfbench package, then runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  Build output goes to $CARGO_TARGET_DIR
(default: .bench_build).  Every argument is passed on to the perfbench
binary, whose last line of standard output is the result; the exit code is
the binary's.  Cargo's output goes to standard error.
"""

import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def build(target_dir):
    manifests = [os.path.join(ROOT, "Cargo.toml"), os.path.join(BENCH_DIR, "Cargo.toml")]
    if not all(os.path.isfile(m) for m in manifests):
        sys.exit("perfbench: the stc sources are missing; run from the root of an stc checkout")
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    for manifest, extra in zip(manifests, (["--bin", "stc"], [])):
        command = ["cargo", "build", "--release", "--offline", "--manifest-path", manifest]
        done = subprocess.run(command + extra, cwd=ROOT, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            sys.exit(f"perfbench: {' '.join(command)} failed")


def main():
    target_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build(target_dir)
    binary = os.path.join(target_dir, "release")
    command = [
        os.path.join(binary, "perfbench"),
        "--stc", os.path.join(binary, "stc"),
        "--bench-dir", BENCH_DIR,
    ] + sys.argv[1:]
    sys.exit(subprocess.run(command, cwd=os.getcwd()).returncode)


if __name__ == "__main__":
    main()
