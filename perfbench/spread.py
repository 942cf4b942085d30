#!/usr/bin/env python3
"""Runs the benchmark on several seeds and prints each end-to-end metric's
median and spread (interquartile range over median) against its bound.

    python3 perfbench/spread.py [--seeds 10] [--first-seed 1] [--verbose] [workload ...]

Run from the repository root; workloads default to all in BENCHMARK.json.
Exits 1 if a spread other than setup_s's exceeds a third of its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--verbose", action="store_true", help="print every run's value")
    parser.add_argument("workloads", nargs="*")
    args = parser.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    steady = True
    for workload in workloads:
        values = {m["name"]: [] for m in bench["end_to_end"]}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            cmd = bench["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", "0",
            ]
            out = subprocess.run(cmd, capture_output=True, text=True, check=True)
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: {result['failed']} failed, correct={result['correct']}")
                steady = False
            for name, metric in result["metrics"].items():
                values[name].append(metric["value"])
        for m in bench["end_to_end"]:
            v = values[m["name"]]
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med
            ok = m["name"] == "setup_s" or spread < m["bound"] / 3
            steady &= ok
            print(f"{workload:14} {m['name']:20} median {med:12.6g} {m['unit']:7}"
                  f" spread {spread:7.4f} bound/3 {m['bound'] / 3:.4f} {'ok' if ok else 'WIDE'}")
            if args.verbose:
                print("    " + " ".join(f"{x:.4g}" for x in v))
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
