#!/usr/bin/env python3
"""Run the benchmark several times per workload, one seed per run, and print
each end-to-end metric's median and quartile spread (IQR over median) next to
its bound from BENCHMARK.json.

Run from the repository root:

    python3 perfbench/spread.py --runs 10 [--workload NAME ...] [--first-seed 1]

The spread is computed as statistics.quantiles(values, n=4) gives the
quartiles. A spread at or above a third of the bound is marked.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(spec, workload, seed, trace):
    cmd = spec["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]),
        "--trace", str(trace),
    ]
    out = subprocess.run(cmd, capture_output=True, text=True, check=False)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stdout}\n{out.stderr}")
    for line in lines:
        if line.startswith("note FLAGGED"):
            print(f"  {workload} seed {seed}: {line}")
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    for workload in workloads:
        values = {m["name"]: [] for m in spec["end_to_end"]}
        for i in range(args.runs):
            result = run_once(spec, workload, args.first_seed + i, 0)
            if not result["correct"]:
                sys.exit(f"{workload} seed {args.first_seed + i}: incorrect result {result}")
            for name in values:
                values[name].append(result["metrics"][name]["value"])
        print(f"{workload} ({args.runs} runs, seeds {args.first_seed}..{args.first_seed + args.runs - 1})")
        for m in spec["end_to_end"]:
            v = values[m["name"]]
            q1, q2, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / q2
            mark = "  <-- >= bound/3" if spread >= m["bound"] / 3 and m["name"] != "setup_s" else ""
            print(f"  {m['name']:<16} median {q2:12.4f} {m['unit']:<9} spread {spread:7.4f} "
                  f"bound {m['bound']}{mark}")
            print(f"    values {[round(x, 4) for x in v]}")


if __name__ == "__main__":
    main()
