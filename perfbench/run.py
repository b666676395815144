#!/usr/bin/env python3
"""Build the release `serve` binary and the benchmark, then run one benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload plan_zipf --seed 1 --seconds 15 --trace 0

Both builds go to $CARGO_TARGET_DIR (default `.bench_build`). The last line
of stdout is the result object; everything else goes before it or to stderr.
"""

import os
import subprocess
import sys


def main() -> int:
    root = os.getcwd()
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(root, target)
    builds = [
        ["cargo", "build", "--release", "--offline", "--locked", "-q",
         "-p", "arrayflex-serve", "--bin", "serve"],
        ["cargo", "build", "--release", "--offline", "--locked", "-q",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
    ]
    for command in builds:
        # Build output belongs on stderr: stdout carries the result.
        built = subprocess.run(command, cwd=root, env=env, stdout=sys.stderr)
        if built.returncode != 0:
            print(f"perfbench: build failed: {' '.join(command)}", file=sys.stderr)
            return built.returncode or 1
    release = os.path.join(target, "release")
    bench = os.path.join(release, "perfbench")
    serve = os.path.join(release, "serve")
    return subprocess.run([bench, "--serve", serve] + sys.argv[1:], cwd=root, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
