#!/usr/bin/env python3
"""Builds the repository benchmark from source and runs one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload catalog|retest|daemon \
        --seed N --seconds S --trace 0|1

The benchmark is compiled into .bench_build/perfbench (the first run
builds the IGDT libraries from src/, later runs only check that the
build is current). The last line of standard output is the result
object; perfbench/README.md describes its metrics. Traced runs also
write their spans to .bench_build/spans-<workload>-<seed>.json.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD_DIR, "igdt_perfbench")
RUN_TIMEOUT_S = 175


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    return 2


def build():
    """Configures (once) and builds the benchmark; False on failure."""
    os.makedirs(BUILD_ROOT, exist_ok=True)
    log_path = os.path.join(BUILD_ROOT, "build.log")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"] + generator)
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "igdt_perfbench",
                  "-j", jobs])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.call(step, stdout=log, stderr=subprocess.STDOUT) != 0:
                with open(log_path) as failed:
                    sys.stderr.write("".join(failed.readlines()[-30:]))
                return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["catalog", "retest", "daemon"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        return fail("the IGDT sources (src/) are not next to perfbench/")
    if not build():
        return fail("build failed; see .bench_build/build.log")

    # Paths are relative to the repository root, where the benchmark
    # runs, so the daemon's socket path stays short.
    scratch = os.path.join(".bench_build", "run-%d" % os.getpid())
    command = [BINARY, "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace),
               "--reference-dir", os.path.join("perfbench", "reference"),
               "--scratch-dir", scratch]
    if args.trace:
        command += ["--spans", os.path.join(
            ".bench_build", "spans-%s-%d.json" % (args.workload, args.seed))]
    try:
        proc = subprocess.Popen(command, cwd=ROOT)
        try:
            code = proc.wait(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            return fail("run exceeded %d s" % RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(os.path.join(ROOT, scratch), ignore_errors=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
