#!/usr/bin/env python3
"""Build and run the repository's benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Builds the release `autocsp` binary (the service's worker processes) and
the benchmark package from source into $CARGO_TARGET_DIR (default
`.bench_build`), then runs the benchmark. Build output goes to standard
error; the last line of standard output is the benchmark's JSON result.
The exit code is the benchmark's, or 1 when the build fails.
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()

# What the benchmark's numbers depend on, for the source digest.
DIGEST_PATHS = ["Cargo.toml", "Cargo.lock", "crates", "src", "vendor", "perfbench"]
DIGEST_SKIP = {".git", "target", ".bench_build", ".bench_runs", "__pycache__"}


def source_digest():
    h = hashlib.sha256()
    for top in DIGEST_PATHS:
        path = os.path.join(ROOT, top)
        if os.path.isfile(path):
            files = [path]
        else:
            files = []
            for d, dirs, names in os.walk(path):
                dirs[:] = sorted(x for x in dirs if x not in DIGEST_SKIP)
                files.extend(os.path.join(d, n) for n in sorted(names))
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def output(cmd):
    try:
        return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "none"


def main():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(ROOT, "Cargo.toml"), "--bin", "autocsp"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
    ]
    for cmd in builds:
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return 1
    release = os.path.join(target, "release")
    cmd = [os.path.join(release, "perfbench"), *sys.argv[1:],
           "--autocsp", os.path.join(release, "autocsp"),
           "--rustc", output(["rustc", "--version"]),
           "--git-commit", output(["git", "rev-parse", "HEAD"]),
           "--source-digest", source_digest()]
    sys.stdout.flush()
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
