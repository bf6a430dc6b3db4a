#!/usr/bin/env python3
"""Builds the eqsql server and the benchmark harness from source, then runs the harness.

usage: python3 e2e_bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout of the workspace. Both builds go to
$CARGO_TARGET_DIR (default: .bench_build in the checkout); the harness's own
scratch files go to .bench_work and are removed when it exits. The last line
of standard output is the JSON result; everything else goes to stderr.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    if not os.path.isfile(os.path.join(ROOT, "crates", "net", "Cargo.toml")):
        print("e2e_bench: the eqsql workspace sources are missing next to this directory",
              file=sys.stderr)
        return 2
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.join(ROOT, env["CARGO_TARGET_DIR"])
    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet",
         "-p", "eqsql-net", "--bin", "eqsql-serve"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
    ]
    for cmd in builds:
        # Build output goes to stderr: stdout carries only the result.
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            print("e2e_bench: build failed: " + " ".join(cmd), file=sys.stderr)
            return 2
    harness = os.path.join(target, "release", "e2e_bench")
    server = os.path.join(target, "release", "eqsql-serve")
    sys.stdout.flush()
    os.chdir(ROOT)
    os.execv(harness, [harness, "--server", server, "--root", ROOT] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
