#!/usr/bin/env python3
"""Builds and runs the repository's end-to-end benchmark (msbench).

    python3 msbench/run.py --workload flat|churn --seed N --seconds S --trace 0|1

Run from the repository root. The first call configures and builds
msbench/ (which compiles the engine from src/) into .bench_build/msbench;
later calls only let CMake confirm the build is current. Each call runs one
workload once in a fresh process and prints the benchmark's result as the
last line of standard output: one JSON object with `correct`, `attempted`,
`failed` and `metrics` (end-to-end metrics with --trace 0, per-layer metrics
with --trace 1). Build or run failures exit non-zero without a result.

Outputs are checked in the same run: against the digests recorded for the
seed in msbench/expected.json when there are any, and always against a cold
rebuild the run makes itself; quality_f1 against its recorded value. msbench/design.json records why each workload
exists, its input shape, and which layer it stresses.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "msbench")
WORK_DIR = os.path.join(ROOT, ".bench_build", "msbench-work")
WORKLOADS = ("flat", "churn")
RUN_TIMEOUT_S = 175


def build():
    """Configures and builds msbench; returns the binary path or None."""
    cache = os.path.join(BUILD_DIR, "CMakeCache.txt")
    if os.path.exists(cache):
        # A checkout that moved keeps a cache naming its old path, which
        # CMake refuses; start that build over.
        with open(cache) as f:
            if "CMAKE_HOME_DIRECTORY:INTERNAL=%s\n" % HERE not in f.read():
                shutil.rmtree(BUILD_DIR)
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD_DIR, "-j", jobs],
    ]
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                sys.stderr.write("msbench: build failed: %s\n" % " ".join(step))
                return None
    return os.path.join(BUILD_DIR, "msbench")


def expected_args(workload, seed):
    """The recorded quality_f1, and the digests recorded for this seed."""
    with open(os.path.join(HERE, "expected.json")) as f:
        expected = json.load(f)
    recorded = expected.get(workload, {}).get(str(seed), {})
    args = ["--expect-f1", str(expected["quality_f1"])]
    for key, flag in (("build_digest", "--expect-build"),
                      ("final_digest", "--expect-final")):
        if key in recorded:
            args += [flag, recorded[key]]
    return args


def valid_result(line):
    try:
        result = json.loads(line)
    except ValueError:
        return False
    return (isinstance(result, dict)
            and set(result) == {"correct", "attempted", "failed", "metrics"}
            and isinstance(result["metrics"], dict)
            and result["attempted"] >= 1)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    binary = build()
    if binary is None:
        return 1
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--work-dir", WORK_DIR] + expected_args(args.workload, args.seed)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("msbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines or not valid_result(lines[-1]):
        sys.stderr.write("msbench: run failed (exit %d)\n" % proc.returncode)
        return 1
    print(lines[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main())
