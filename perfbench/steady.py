#!/usr/bin/env python3
"""Steadiness check for the benchmark.

Runs each workload in two sets of runs with distinct seeds, alternating
which set goes first (A B, B A, A B, ...), and prints for every metric
the median, the quartiles, the interquartile spread as a share of the
median, and the gap between the two sets' medians as a share of the
first.  With BENCHMARK.json present it also shows each end-to-end
metric's bound and flags a spread or gap beyond it.  It exits 1 if any
run failed an operation or was incorrect, or if any metric is flagged.

    python3 perfbench/steady.py --runs 10 --seconds 10
    python3 perfbench/steady.py --workloads keyed-sessions --runs 5

Run it from the root of a checkout; it calls perfbench/run.sh.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

WORKLOADS = ["temporal-queries", "keyed-sessions", "durable-writes"]


def run_once(workload, seed, seconds):
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed",
           str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                         timeout=900).stdout
    return json.loads(out.strip().splitlines()[-1])


def spread(values):
    """(median, q1, q3, (q3 - q1) / median) as Python's quantiles give them."""
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", default=",".join(WORKLOADS))
    p.add_argument("--runs", type=int, default=10, help="runs per set")
    p.add_argument("--seconds", type=int, default=10)
    a = p.parse_args()

    bounds = {}
    if os.path.exists("BENCHMARK.json"):
        with open("BENCHMARK.json") as f:
            bench = json.load(f)
        bounds = {m["name"]: (m["bound"], m["better"]) for m in bench["end_to_end"]}

    ok = True
    for w in a.workloads.split(","):
        sets = [[], []]
        for k in range(a.runs):
            for s in ([0, 1] if k % 2 == 0 else [1, 0]):
                seed = 1 + s * a.runs + k
                r = run_once(w, seed, a.seconds)
                if not r["correct"] or r["failed"] != 0:
                    ok = False
                sets[s].append(r)
                print(f"{w} set {'AB'[s]} seed {seed}: attempted {r['attempted']}"
                      f" failed {r['failed']} correct {r['correct']}",
                      file=sys.stderr, flush=True)
        print(f"\n== {w} ({a.runs} runs per set, {a.seconds} s)")
        print(f"{'metric':34} {'set':3} {'median':>14} {'q1':>14} {'q3':>14}"
              f" {'iqr/med':>8} {'gap':>8} {'bound':>6}")
        for name in sets[0][0]["metrics"]:
            meds = []
            for s, runs in enumerate(sets):
                vals = [r["metrics"][name]["value"] for r in runs]
                med, q1, q3, rel = spread(vals)
                meds.append(med)
                bound, better = bounds.get(name, (None, None))
                gap = ""
                flag = ""
                if s == 1 and meds[0]:
                    g = (meds[1] - meds[0]) / meds[0]
                    worse = g if better == "lower" else -g
                    gap = f"{g:+.4f}"
                    if bound is not None and worse > bound:
                        flag = " GAP>BOUND"
                if bound is not None and rel > bound:
                    flag += " SPREAD>BOUND"
                if flag:
                    ok = False
                print(f"{name:34} {'AB'[s]:3} {med:14.6g} {q1:14.6g} {q3:14.6g}"
                      f" {rel:8.4f} {gap:>8} {'' if bound is None else bound:>6}{flag}")
        failures = sum(r["failed"] for runs in sets for r in runs)
        print(f"failed operations over all runs: {failures}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
