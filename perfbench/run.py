#!/usr/bin/env python3
"""Wall-clock benchmark of the DIPBench system, one workload per call.

    python3 perfbench/run.py --workload fig10_paper --seed 1 --seconds 10 --trace 0

Builds dipbench_perf (perfbench/CMakeLists.txt, which compiles the system
from src/) into .bench_build/perfbench, runs its self-tests, then runs
the workload manifest perfbench/workloads/<workload>.json for --seconds.
--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones. The
last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics. Build output goes to stderr. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "dipbench_perf")
WORKLOADS = os.path.join(HERE, "workloads")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("the system's sources (src/) are not in this checkout")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        fail("build failed")
    if subprocess.run([BINARY, "--selftest"], stdout=sys.stderr).returncode:
        fail("dipbench_perf self-tests failed")


def main():
    names = sorted(f[:-len(".json")] for f in os.listdir(WORKLOADS)
                   if f.endswith(".json"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    build()

    command = [BINARY,
               "--manifest=" + os.path.join(WORKLOADS, args.workload + ".json"),
               "--seed=%d" % args.seed,
               "--seconds=%g" % args.seconds,
               "--trace=%d" % args.trace]
    # Outputs recorded for the manifests' own seed; other seeds are checked
    # against the run's first repetition.
    with open(os.path.join(HERE, "expected.json")) as f:
        expected = json.load(f)
    if args.seed == expected["seed"]:
        want = expected["workloads"][args.workload]
        command += ["--expect-monitor=" + want["monitor_csv"],
                    "--expect-state=" + want["state"]]
    sys.stdout.flush()
    sys.exit(subprocess.run(command).returncode)


if __name__ == "__main__":
    main()
