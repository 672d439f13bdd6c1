#!/usr/bin/env python3
"""Builds and runs the jump-pipeline benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload live_60fps --seed 1 --seconds 10 --trace 0

The first call configures and builds perfbench/CMakeLists.txt (the library
in its default Release configuration plus the benchmark program) into
.bench_build/perfbench; later calls only rebuild what changed. Build output
goes to standard error, so standard output carries only the benchmark's
lines, the last of which is the JSON result. Any argument is passed through
to the benchmark program (see perfbench/METRICS.md).
"""
import hashlib
import os
import shutil
import subprocess
import sys

BUILD_DIR = os.path.join(".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "slj_perfbench")


def source_digest():
    """Provenance when no git metadata is present: a hash of the sources."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench", "CMakeLists.txt"):
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(top) for f in fs)
        for path in paths:
            digest.update(path.encode())
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def git_sha():
    if os.path.isdir(".git"):
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
        if out.returncode == 0:
            return out.stdout.strip()
    return source_digest()


def build():
    jobs = str(max(1, os.cpu_count() or 1))
    configure = ["cmake", "-S", "perfbench", "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure += ["-G", "Ninja"]
    for cmd in (configure, ["cmake", "--build", BUILD_DIR, "-j", jobs]):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return False
    return True


def main():
    if not (os.path.isfile("CMakeLists.txt") and os.path.isdir("src")):
        print("perfbench: run from the repository root (CMakeLists.txt and src/ are missing)",
              file=sys.stderr)
        return 2
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    env = dict(os.environ, SLJ_GIT_SHA=git_sha())
    return subprocess.run([BINARY] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
