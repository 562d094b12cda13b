#!/usr/bin/env python3
"""Builds the program and the benchmark from source, then runs one workload.

    python3 perfbench/run.py --workload read-hot|read-write|oneshot-cli \
        --seed N --seconds S --trace 0|1 [--tiny] [--sabotage]

Run from the repository root. Builds go to $CARGO_TARGET_DIR (default
`.bench_build`); run scratch and trace spans go to `.bench_out`. The
last line of standard output is the JSON result. Exits nonzero without a
result when the build fails, e.g. when the repository sources are absent.
"""

import os
import subprocess
import sys


def main() -> int:
    root = os.getcwd()
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet", "-p", "sj-cli", "--bin", "sjsel"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
    ]
    for cmd in builds:
        if not os.path.exists("Cargo.toml"):
            print("perfbench: no Cargo.toml in " + root + "; run from the repository root",
                  file=sys.stderr)
            return 2
        # Cargo's own output goes to stderr: stdout carries only the report.
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return 2
    release = os.path.join(target, "release")
    bench = [os.path.join(release, "perfbench"), "--sjsel", os.path.join(release, "sjsel")]
    return subprocess.run(bench + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
