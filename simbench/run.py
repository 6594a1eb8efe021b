#!/usr/bin/env python3
"""Build the simulator benchmark from source and run one workload.

Usage (from the repository root):

    python3 simbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The simulator sources (src/) and simbench/ are configured with CMake
into $CARGO_TARGET_DIR (default .bench_build) under the repository
root; later runs only rebuild what changed. Build output goes to a log
file there, so standard output carries only the benchmark's report,
whose last line is the JSON result. Every argument is passed to the
simbench binary, which validates it. The exit status is the binary's,
or 1 if the sources are missing or the build fails.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_root():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def fail(message, log=None):
    print(f"simbench: {message}", file=sys.stderr)
    if log and os.path.exists(log):
        with open(log, encoding="utf-8", errors="replace") as f:
            sys.stderr.write("".join(f.readlines()[-40:]))
    return 1


def cached_source(build_dir):
    """Source directory a previous configure used, or None."""
    cache = os.path.join(build_dir, "CMakeCache.txt")
    if not os.path.exists(cache):
        return None
    with open(cache, encoding="utf-8", errors="replace") as f:
        for line in f:
            if line.startswith("CMAKE_HOME_DIRECTORY:INTERNAL="):
                return line.split("=", 1)[1].strip()
    return None


def build(build_dir, log):
    if cached_source(build_dir) not in (None, HERE):
        shutil.rmtree(build_dir)  # configured from another checkout
    os.makedirs(build_dir, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs,
                  "--target", "simbench"])
    with open(log, "w", encoding="utf-8") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              check=False).returncode != 0:
                return False
    return True


def main(argv):
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        return fail(f"simulator sources not found under {ROOT}/src")
    if shutil.which("cmake") is None:
        return fail("cmake not found on PATH")
    root = build_root()
    build_dir = os.path.join(root, "simbench")
    log = os.path.join(root, "simbench-build.log")
    os.makedirs(root, exist_ok=True)
    if not build(build_dir, log):
        return fail(f"build failed (log: {log})", log)
    cmd = [os.path.join(build_dir, "simbench"), *argv,
           "--expect", os.path.join(HERE, "fingerprints.json"),
           "--out", os.path.join(root, "results")]
    return subprocess.run(cmd, check=False).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
