#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workload W [--seeds 1-10]

Run from the repository root.  Runs run.py once per seed, one run at a
time, and prints for every end-to-end metric its median over the runs
and the distance between its first and third quartile as a share of
the median, next to the metric's bound in BENCHMARK.json, and how long
the runs took.  Each run measures for run_seconds in BENCHMARK.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def seeds(text):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    args = ap.parse_args()
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]

    results, durations = [], []
    for s in args.seeds:
        t0 = time.time()
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(s), "--seconds", str(seconds),
             "--trace", "0"],
            stdout=subprocess.PIPE, text=True, check=True)
        durations.append(time.time() - t0)
        results.append(json.loads(done.stdout.splitlines()[-1]))

    print("%s, %d runs of --seconds %d (each took %.1f-%.1f s, median %.1f), "
          "correct in %d, ops failed %d of %d" % (
              args.workload, len(results), seconds, min(durations),
              max(durations), statistics.median(durations),
              sum(r["correct"] for r in results),
              sum(r["failed"] for r in results),
              sum(r["attempted"] for r in results)))
    for m in spec["end_to_end"]:
        xs = [r["metrics"][m["name"]]["value"] for r in results]
        med = statistics.median(xs)
        q = statistics.quantiles(xs, n=4) if len(xs) > 1 else [med, med, med]
        sp = (q[2] - q[0]) / med
        print("  %-20s median %-12.6g spread %.4f  bound %.2f  %s" % (
            m["name"], med, sp, m["bound"],
            "ok" if sp < m["bound"] / 3 else "WIDE"))


if __name__ == "__main__":
    main()
