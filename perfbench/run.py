#!/usr/bin/env python3
"""Builds and runs the end-to-end campaign benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/ (the driver plus the sbgp library from the repository's
src/) in Release mode into $CARGO_TARGET_DIR, or .bench_build at the
repository root when unset, then runs the driver with the given flags.
Build output goes to stderr; the driver's stdout passes through, so the
last stdout line is the result JSON. The exit status is the driver's:
0 clean, 1 a correctness check failed, 2 usage, build or environment
error.

The benchmark's own tests are perfbench/test_perfbench.py.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    path = (os.environ.get("CARGO_TARGET_DIR")
            or os.path.join(ROOT, ".bench_build"))
    return os.path.abspath(path)


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def scratch_env():
    """The environment with TMPDIR inside the build directory, so the
    compiler's and the driver's temporary files stay in the tree."""
    tmp = os.path.join(build_dir(), "tmp")
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, TMPDIR=tmp)


def build(target):
    """Configures (once) and builds `target`; returns its path."""
    for needed in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(f"{os.path.join(ROOT, needed)} is missing; the benchmark "
                 "builds the library from the repository")
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", target, "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              env=scratch_env())
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")
    return os.path.join(out, target)


def git_rev():
    if os.environ.get("SBGP_GIT_REV"):
        return os.environ["SBGP_GIT_REV"]
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"  # an exported tree: never look above it
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def main(argv):
    work = os.path.join(build_dir(), "work")
    binary = build("sbgp_perfbench")
    env = dict(scratch_env(), SBGP_GIT_REV=git_rev())
    cmd = [binary] + argv + ["--repo-root", ROOT, "--work-dir", work]
    return subprocess.run(cmd, env=env).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
