#!/usr/bin/env python3
"""Builds the MaxRS benchmark from source and runs one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload wire_hot|serve_cold|oneshot \
        --seed N --seconds S --trace 0|1

The first run configures and builds perfbench/ (which builds the library
from the root's src/) into .bench_build/perfbench; later runs rebuild only
what changed. The benchmark binary prints a readable table and, as the last
line of stdout, one JSON object with the run's metrics. --trace 1 also
writes the run's spans to .bench_build/traces/. Exits non-zero when the
sources are missing, the build fails, or the run reports a wrong answer.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD, "maxrs_perfbench")
WORKLOADS = ("wire_hot", "serve_cold", "oneshot")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds the binary; output goes to a log file."""
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "maxrs_perfbench",
                  "-j", jobs])
    with open(log_path, "w") as log:
        for step in steps:
            code = subprocess.call(step, stdout=log, stderr=subprocess.STDOUT,
                                   cwd=ROOT, timeout=BUILD_TIMEOUT_S)
            if code != 0:
                with open(log_path) as failed:
                    sys.stderr.write(failed.read()[-4000:])
                return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    for needed in ("CMakeLists.txt", os.path.join("src", "CMakeLists.txt")):
        if not os.path.exists(os.path.join(ROOT, needed)):
            sys.stderr.write("perfbench: %s not found; run from a full "
                             "checkout of the repository\n" % needed)
            return 2
    if not build():
        sys.stderr.write("perfbench: build failed\n")
        return 3

    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        traces = os.path.join(BUILD_ROOT, "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace-out", os.path.join(
            traces, "%s-seed%d.jsonl" % (args.workload, args.seed))]
    sys.stdout.flush()
    # subprocess.run kills and reaps the binary if it overruns.
    return subprocess.run(command, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode


if __name__ == "__main__":
    sys.exit(main())
