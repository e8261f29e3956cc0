#!/usr/bin/env python3
"""Build the program and the benchmark from source, then run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload <analyze_full|refresh_append|daemon_ingest> \\
        --seed <n> --seconds <n> --trace <0|1>

Cargo builds into $CARGO_TARGET_DIR (default `.bench_build`) and prints
its progress on stderr, so the last line on stdout is the benchmark's
JSON result. Exits non-zero, printing no result, when the build fails.
"""

import os
import subprocess
import sys


def build(env, *args):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", *args]
    if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
        sys.exit(f"perfbench: build failed: {' '.join(cmd)}")


def main():
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    build(env, "--bin", "ssfad")
    build(env, "--manifest-path", os.path.join("perfbench", "Cargo.toml"))
    release = os.path.join(target, "release")
    cmd = [
        os.path.join(release, "perfbench"),
        *sys.argv[1:],
        "--ssfad",
        os.path.join(release, "ssfad"),
    ]
    sys.stdout.flush()
    sys.exit(subprocess.run(cmd, env=env).returncode)


if __name__ == "__main__":
    main()
