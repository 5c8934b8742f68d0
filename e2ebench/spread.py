#!/usr/bin/env python3
"""Runs one workload under several seeds and prints each metric's spread.

    python3 e2ebench/spread.py --workload paper_cold --seeds 1,2,3,4,5 [--seconds 10] [--trace 0]

For every metric: the median of the runs, and the distance between the
first and third quartile (statistics.quantiles(values, n=4)) as a share of
that median — the figure BENCHMARK.json's bounds are meant to cover.
Run from the repository root.
"""
import argparse
import json
import statistics
import subprocess
import sys


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1,2,3,4,5")
    parser.add_argument("--seconds", default="10")
    parser.add_argument("--trace", default="0")
    args = parser.parse_args()
    with open("BENCHMARK.json") as f:
        bounds = {m["name"]: m.get("bound") for m in json.load(f)["end_to_end"]}
    values = {}
    for seed in args.seeds.split(","):
        done = subprocess.run(
            [sys.executable, "e2ebench/run.py", "--workload", args.workload,
             "--seed", seed, "--seconds", args.seconds, "--trace", args.trace],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        if done.returncode != 0:
            sys.exit("seed %s failed:\n%s" % (seed, done.stdout))
        result = json.loads(done.stdout.splitlines()[-1])
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print("seed %s: %s" % (seed, " ".join(
            "%s=%.4g" % (n, m["value"]) for n, m in result["metrics"].items())),
            flush=True)
    for name, vals in values.items():
        median = statistics.median(vals)
        q = statistics.quantiles(vals, n=4)
        spread = (q[2] - q[0]) / median if median else float("nan")
        bound = bounds.get(name)
        print("%-34s median %12.5g  spread %6.3f  bound %s" %
              (name, median, spread, bound))


if __name__ == "__main__":
    main()
