#!/usr/bin/env python3
"""Builds and runs the wmn end-to-end benchmark.

    python3 perfbench/run.py --workload <repro-paper|ga-large|search-large> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. It builds `run_all` from the repository's
workspace and the `wmn-perfbench` package beside this file (both in release
mode, into $CARGO_TARGET_DIR, default `.bench_build`), then replaces itself
with the benchmark binary, whose last line of standard output is the result
JSON. Build output goes to standard error. See README.md.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("repro-paper", "ga-large", "search-large")


def build(target, manifest, *extra):
    cmd = ["cargo", "build", "--release", "--offline", "--manifest-path", manifest, *extra]
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    return subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    workspace = os.path.join(ROOT, "Cargo.toml")
    if not (os.path.isfile(workspace) and os.path.isdir(os.path.join(ROOT, "crates"))):
        print(f"run.py: no wmn workspace at {ROOT}; run from a repository checkout",
              file=sys.stderr)
        return 2
    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not (build(target, workspace, "-p", "wmn-experiments", "--bin", "run_all")
            and build(target, os.path.join(HERE, "Cargo.toml"))):
        print("run.py: build failed", file=sys.stderr)
        return 1

    release = os.path.join(target, "release")
    bench = os.path.join(release, "wmn-perfbench")
    sys.stdout.flush()
    os.execv(bench, [
        bench,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--run-all", os.path.join(release, "run_all"),
        "--out-dir", os.path.join(ROOT, ".bench_out"),
    ])


if __name__ == "__main__":
    sys.exit(main())
