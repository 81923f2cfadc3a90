#!/usr/bin/env python3
"""Builds the phpsafe daemon and the perfbench binary from source, then runs
one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. Both builds go to $CARGO_TARGET_DIR
(default `.bench_build`). Build output goes to stderr; the benchmark's last
stdout line is the JSON result.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main() -> int:
    for needed in ("Cargo.toml", os.path.join("crates", "core", "Cargo.toml")):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            print(f"error: {needed} not found; run from a full checkout", file=sys.stderr)
            return 2
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.join(ROOT, env["CARGO_TARGET_DIR"])
    env["CARGO_TARGET_DIR"] = target
    builds = [
        ["cargo", "build", "--release", "--offline", "-p", "phpsafe", "--bin", "phpsafe"],
        ["cargo", "build", "--release", "--offline",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
    ]
    for cmd in builds:
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            print("error: build failed: " + " ".join(cmd), file=sys.stderr)
            return 2
    bench = os.path.join(target, "release", "perfbench")
    daemon = os.path.join(target, "release", "phpsafe")
    return subprocess.run([bench, "--phpsafe", daemon, "--root", ROOT] + sys.argv[1:],
                          cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
