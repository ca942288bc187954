#!/usr/bin/env python3
"""Builds and runs the relcomp repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload fresh_audits --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

The first call configures and builds the relcomp library (../src) and the
perfbench binary as a Release build under $CARGO_TARGET_DIR (default
.bench_build); later calls only rebuild what changed. Build output goes to
standard error. The binary's standard output is passed through: its last
line is the result object.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def source_digest():
    """Content hash of the program sources, for provenance without git."""
    digest = hashlib.sha1()
    src = os.path.join(ROOT, "src")
    for base, dirs, files in os.walk(src):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()[:12]


def describe():
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"], cwd=ROOT,
            capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "src-" + source_digest()


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no relcomp sources under %s/src" % ROOT)
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "perfbench-release")
    steps = [
        ["cmake", "--build", build_dir, "--target", "perfbench", "-j",
         str(min(4, os.cpu_count() or 1))],
    ]
    # Configure once; later builds re-run configure only if a
    # CMakeLists.txt changed.
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", build_dir,
                         "-DCMAKE_BUILD_TYPE=Release"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build failed: " + " ".join(step))
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and not args.workload:
        parser.error("--workload is required")

    binary = build()
    if args.selftest:
        command = [binary, "--selftest"]
    else:
        command = [binary, "--workload", args.workload, "--seed",
                   str(args.seed), "--seconds", str(args.seconds), "--trace",
                   str(args.trace)]
    env = dict(os.environ, PERFBENCH_GIT_DESCRIBE=describe())
    sys.stdout.flush()
    proc = subprocess.Popen(command, cwd=ROOT, env=env)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    except KeyboardInterrupt:
        proc.kill()
        proc.wait()
        raise


if __name__ == "__main__":
    sys.exit(main())
