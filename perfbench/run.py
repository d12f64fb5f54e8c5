#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the repository root. The first call configures and builds
perfbench/CMakeLists.txt (the repository's libraries from src/ plus the
benchmark binary, Release) into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that is unset; later calls only rebuild what
changed. Build output goes to stderr, so the last line of stdout is the
benchmark's JSON result. Exits non-zero, printing no result, when the
build or the run fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def run_quietly(cmd):
    """Runs a build step with its output on stderr; exits on failure."""
    result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if result.returncode != 0:
        print(f"perfbench: build step failed: {' '.join(cmd)}", file=sys.stderr)
        sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: no src/ next to perfbench/; nothing to build",
              file=sys.stderr)
        sys.exit(2)
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        run_quietly(["cmake", "-S", HERE, "-B", out,
                     "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    run_quietly(["cmake", "--build", out, "-j", jobs])
    return os.path.join(out, "perfbench")


def main():
    binary = build()
    args = [binary] + sys.argv[1:]
    if "--selftest" not in sys.argv[1:]:
        args += ["--workloads", os.path.join(HERE, "workloads")]
    return subprocess.run(args).returncode


if __name__ == "__main__":
    sys.exit(main())
