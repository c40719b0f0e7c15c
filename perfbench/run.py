#!/usr/bin/env python3
"""Full-stack room benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. Builds perfbench/ (which builds the
repository's libraries from src/) into .bench_build/perfbench, runs the
benchmark's own rule tests, then runs room_bench. Build and test output go to
stderr; stdout carries room_bench's output, whose last line is the result
JSON. Exits non-zero, printing no result, when the checkout has no program to
build or any step fails.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def step(cmd):
    """Runs cmd with its stdout sent to stderr; exits on failure."""
    rc = subprocess.run(cmd, stdout=sys.stderr).returncode
    if rc != 0:
        print("perfbench: %s failed (exit %d)" % (cmd[0], rc), file=sys.stderr)
        sys.exit(rc if rc > 0 else 1)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    for need in ("src/scn/runtime.hpp", "scenarios"):
        if not os.path.exists(os.path.join(ROOT, need)):
            print("perfbench: %s not found; run from the root of a checkout "
                  "of the repository" % need, file=sys.stderr)
            return 2

    build = os.path.join(ROOT, ".bench_build", "perfbench")
    configure = ["cmake", "-S", HERE, "-B", build, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    if not os.path.exists(os.path.join(build, "CMakeCache.txt")):
        step(configure)
    jobs = str(min(4, os.cpu_count() or 1))
    step(["cmake", "--build", build, "-j", jobs])
    step([os.path.join(build, "ledger_test")])

    cmd = [os.path.join(build, "room_bench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scn-dir", os.path.join(ROOT, "scenarios"), "--out-dir", build]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
