#!/usr/bin/env python3
"""Builds the xsm end-to-end benchmark from source and runs one workload.

    python3 e2ebench/run.py --workload paper_cold --seed 2006 --seconds 10 --trace 0

Run from the repository root. The build goes to .bench_build/e2ebench
(Release); run state goes to .bench_build/e2e-runs. The benchmark's last
stdout line is one JSON object with "correct", "attempted", "failed" and
"metrics". Before printing it, this script applies the exact-repeat gate:
every count the benchmark reports on its EXACT line must equal the count
recorded in e2ebench/expected_counts.json for the same workload and seed.
A mismatch, a failed check or a failed build exits non-zero.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "e2ebench")
RUNS_DIR = os.path.join(ROOT, ".bench_build", "e2e-runs")
BINARY = os.path.join(BUILD_DIR, "xsm_e2e")
EXPECTED = os.path.join(HERE, "expected_counts.json")
DEFAULT_SEED = 2006
RUN_TIMEOUT_S = 170


def build():
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD_DIR, "-j", jobs],
    ]
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit("e2ebench: build step failed: " + " ".join(step))


def exact_gate(workload, seed, lines):
    """Compares the EXACT line with the recorded counts; returns errors."""
    exact = None
    for line in lines:
        if line.startswith("EXACT "):
            exact = json.loads(line[len("EXACT "):])
    if exact is None:
        return ["no EXACT line in the benchmark output"]
    try:
        with open(EXPECTED) as f:
            recorded = json.load(f).get(workload, {}).get(str(seed))
    except (OSError, ValueError) as e:
        return ["cannot read %s: %s" % (EXPECTED, e)]
    if recorded is None:
        print("e2ebench: no recorded exact counts for %s at seed %d; "
              "exact-repeat gate skipped" % (workload, seed), file=sys.stderr)
        return []
    errors = []
    for name, value in sorted(exact.items()):
        if name in recorded and recorded[name] != value:
            errors.append("%s = %r, recorded %r" % (name, value, recorded[name]))
    return errors


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build()
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out-dir", RUNS_DIR]
    try:
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        sys.exit("e2ebench: run exceeded %d s" % RUN_TIMEOUT_S)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        sys.stdout.write(done.stdout)
        sys.exit("e2ebench: benchmark exited with code %d" % done.returncode)
    errors = exact_gate(args.workload, args.seed, lines)
    for line in lines[:-1]:
        print(line)
    if errors:
        for error in errors:
            print("e2ebench: EXACT-REPEAT GATE FAILED: " + error,
                  file=sys.stderr)
        sys.exit(1)
    print(lines[-1])


if __name__ == "__main__":
    main()
