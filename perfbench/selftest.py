#!/usr/bin/env python3
"""Self-test: runs every workload for one second, untraced and traced, and
checks that every metric BENCHMARK.json names is printed, finite, with the
unit BENCHMARK.json gives it and a clock (host, modelled or count); that the
last line is the result object; and that nothing failed.

    python3 perfbench/selftest.py        # from the repository root
"""

import json
import math
import subprocess
import sys

CLOCKS = {"host", "modelled", "count"}


def check(bench, workload, trace):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", "7", "--seconds", "1", "--trace", str(trace),
    ]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    problems = []
    if out.returncode != 0:
        problems.append(f"exit status {out.returncode}: {out.stderr.strip()[-500:]}")
    lines = out.stdout.strip().splitlines()
    printed = {}
    for line in lines:
        if line.startswith("metric\t"):
            _, metric_set, name, value, unit, clock = line.split("\t")
            printed[name] = (float(value) if value != "null" else math.nan, unit, clock)
    wanted = bench["per_layer"] if trace else bench["end_to_end"]
    expected = bench["end_to_end"] + [
        {"name": "failed_frac", "unit": "ratio"},
        {"name": "p50_ms", "unit": "ms"},
        {"name": "p99_ms", "unit": "ms"},
        {"name": "interactive_p99_ms", "unit": "ms"},
    ]
    if trace:
        expected += bench["per_layer"]
    for m in expected:
        got = printed.get(m["name"])
        if got is None:
            problems.append(f"{m['name']} not printed")
            continue
        value, unit, clock = got
        if not math.isfinite(value):
            problems.append(f"{m['name']} = {value} is not finite")
        if unit != m["unit"]:
            problems.append(f"{m['name']} unit {unit!r}, BENCHMARK.json says {m['unit']!r}")
        if clock not in CLOCKS:
            problems.append(f"{m['name']} clock {clock!r}")
    if printed.get("failed_frac", (None,))[0] != 0:
        problems.append(f"failed_frac = {printed.get('failed_frac')}")
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return problems + ["last line is not a JSON object"]
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0 or result.get("attempted", 0) < 1:
        problems.append(f"correct={result.get('correct')} attempted={result.get('attempted')} "
                        f"failed={result.get('failed')}")
    names = [m["name"] for m in wanted]
    if list(result.get("metrics", {})) != names:
        problems.append("result metrics differ from BENCHMARK.json's list")
    for name, metric in result.get("metrics", {}).items():
        if sorted(metric) != ["unit", "value"] or not isinstance(metric["value"], (int, float)):
            problems.append(f"result metric {name} is {metric}")
    return problems


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    failures = 0
    for workload in [w["name"] for w in bench["workloads"]]:
        for trace in (0, 1):
            problems = check(bench, workload, trace)
            status = "ok" if not problems else "FAIL"
            print(f"{workload} --trace {trace}: {status}")
            for p in problems:
                print(f"    {p}")
            failures += bool(problems)
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
