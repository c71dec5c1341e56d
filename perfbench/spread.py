#!/usr/bin/env python3
"""Run one workload over several seeds and print each metric's spread.

    python3 perfbench/spread.py --workload serve-deadline --seeds 1-10 [--trace 0] [--seconds S]

For each metric: the median over the runs, and the distance between the
first and third quartiles (statistics.quantiles(values, n=4)) as a share
of the median -- the figure each end-to-end metric's bound in
BENCHMARK.json is checked against.  The seconds default to run_seconds
from BENCHMARK.json.  Raw results are appended to perfbench/out/runs.jsonl.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def seeds_of(spec):
    if "-" in spec:
        lo, hi = spec.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in spec.split(",")]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", default="0")
    ap.add_argument("--seconds", type=int)
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    values = {}
    units = {}
    os.makedirs(os.path.join("perfbench", "out"), exist_ok=True)
    for seed in seeds_of(args.seeds):
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(seconds), "--trace", args.trace]
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        last = run.stdout.strip().splitlines()[-1] if run.stdout.strip() else ""
        if run.returncode != 0:
            sys.exit("seed %d: exit %d\n%s" % (seed, run.returncode, run.stdout))
        result = json.loads(last)
        with open(os.path.join("perfbench", "out", "runs.jsonl"), "a") as f:
            f.write(json.dumps({"workload": args.workload, "seed": seed,
                                "seconds": seconds, "result": result}) + "\n")
        print("seed %d: %s" % (seed, " ".join(
            "%s=%.6g" % (k, v["value"]) for k, v in result["metrics"].items())), flush=True)
        for k, v in result["metrics"].items():
            values.setdefault(k, []).append(v["value"])
            units[k] = v["unit"]
    print("%-30s %14s %10s %8s %s" % ("metric", "median", "iqr/med", "bound", "unit"))
    for k, vs in values.items():
        med = statistics.median(vs)
        if len(vs) >= 2 and med:
            q = statistics.quantiles(vs, n=4)
            spread = "%.4f" % ((q[2] - q[0]) / med)
        else:
            spread = "-"
        b = bounds.get(k)
        print("%-30s %14.6g %10s %8s %s" % (k, med, spread, "-" if b is None else b, units[k]))


if __name__ == "__main__":
    main()
