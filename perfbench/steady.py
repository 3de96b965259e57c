#!/usr/bin/env python3
"""Steadiness report: run the benchmark once per seed on each workload
and print, for every end-to-end metric, the median, the quartiles and
the run-to-run spread.

    python3 perfbench/steady.py --seeds 1-10
    python3 perfbench/steady.py --seeds 1,2,3,4,5 --workloads lu-p64

Run it from the root of a checkout.  Runs are sequential.  Quartiles
are statistics.quantiles(values, n=4); the spread is (q3 - q1) / median.
A metric with a bound in BENCHMARK.json is marked WIDE when its spread
exceeds the bound and "near" when it exceeds a third of it.  The other
end-to-end figures the report prints (raw wall_s, simulated results,
minsns_per_s, fail_frac) are shown too; the simulated ones must have
zero spread for workloads whose inputs do not depend on the seed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def one_run(workload, seed):
    """Returns ({metric: (value, unit)}, correct) for one benchmark run."""
    out = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = out.stdout.rstrip("\n").split("\n")
    if out.returncode != 0:
        print("\n".join(lines), file=sys.stderr)
        sys.exit("%s seed %d failed (exit %d)" % (workload, seed, out.returncode))
    result = json.loads(lines[-1])
    metrics = {k: (v["value"], v["unit"]) for k, v in result["metrics"].items()}
    # the report's "e2e NAME MEDIAN UNIT [Q1, Q3]" lines
    for line in lines:
        f = line.split()
        if len(f) >= 4 and f[0] == "e2e" and f[1] not in metrics:
            metrics[f[1]] = (float(f[2]), f[3])
    return metrics, result["correct"]


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in bench["workloads"]))
    args = ap.parse_args()
    seeds = parse_seeds(args.seeds)

    wide = 0
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds:
            metrics, correct = one_run(workload, seed)
            if not correct:
                sys.exit("%s seed %d: outputs incorrect" % (workload, seed))
            runs.append(metrics)
            print("%s seed %d: %s" % (workload, seed, "  ".join(
                "%s=%.6g" % (k, metrics[k][0]) for k in bounds)), flush=True)
        print("\n%s, %d runs%s" % (workload, len(runs), "" if len(runs) > 1
                                   else " (one run: no quartiles)"))
        print("  %-20s %-10s %14s %14s %14s %8s %6s" % (
            "metric", "unit", "median", "q1", "q3", "spread", "bound"))
        for name in runs[0]:
            values = [r[name][0] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                         else (med, med, med))
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            flag = ""
            if bound is not None and spread > bound:
                flag, wide = "WIDE", wide + 1
            elif bound is not None and spread > bound / 3:
                flag = "near"
            print("  %-20s %-10s %14.6g %14.6g %14.6g %8.4f %6s %s" % (
                name, runs[0][name][1], med, q1, q3, spread,
                "" if bound is None else bound, flag))
        print(flush=True)
    sys.exit(1 if wide else 0)


if __name__ == "__main__":
    main()
