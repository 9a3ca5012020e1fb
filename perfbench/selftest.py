#!/usr/bin/env python3
"""Determinism self-test of the toolchain benchmark.

    python3 perfbench/selftest.py [--seed N] [--workload W ...]

Run from the repository root.  Runs one pass of each workload twice at
the same seed, each in a fresh process, and checks that the counters
which are deterministic today repeat exactly: pass statistics, certify
counts, executor and memtrace counts (the fingerprint), the prover's
memo misses where no deadline can cut a query, and the quality metrics.
Counters with a known cause of variation are printed with that cause
and never asserted.  Exits 1 if an asserted counter differs.
"""

import argparse
import os
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

QUALITY = ["impact_geomean", "peak_ratio_geomean", "allocs_pack",
           "cert_proved_frac", "ops", "ops_failed"]

# Counters asserted to repeat, per workload.  The compile and execute
# workloads' prover work never meets a deadline; the quick lint of
# their untimed tail does not either.
REPEATS = {
    "compile": QUALITY + ["prover_misses", "prover_exhausted",
                          "lint_decided_frac"],
    "verify": QUALITY,
    "execute": QUALITY + ["prover_misses", "prover_exhausted",
                          "lint_decided_frac"],
}

F1 = ("F1: memlint's write-race queries run Nonoverlap.disjoint under a "
      "4 s CPU-time deadline, so where a query is cut depends on machine "
      "speed")

# Counters known not to repeat, with their cause.
VARIES = {
    "verify": {"lint_decided_frac": F1, "prover_misses": F1,
               "prover_exhausted": F1},
}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--workload", action="append", choices=run.WORKLOADS)
    args = ap.parse_args()
    exe = run.build(os.getcwd())
    bad = 0
    for w in args.workload or run.WORKLOADS:
        a, b = (run.run_pass(exe, w, args.seed, 0) for _ in range(2))
        print("%s (seed %d, two fresh processes):" % (w, args.seed))
        fa, fb = a["fingerprint"], b["fingerprint"]
        same = fa == fb
        bad += not same
        print("  %-4s fingerprint: %d lines" % ("ok" if same else "FAIL", len(fa)))
        if not same:
            for la, lb in zip(fa, fb):
                if la != lb:
                    print("       %s\n    vs %s" % (la, lb))
        for key in REPEATS[w]:
            same = a[key] == b[key]
            bad += not same
            print("  %-4s %s: %r / %r" % ("ok" if same else "FAIL", key,
                                         a[key], b[key]))
        for key, cause in VARIES.get(w, {}).items():
            print("  %-4s %s: %r / %r (not asserted; %s)"
                  % ("same" if a[key] == b[key] else "diff", key, a[key],
                     b[key], cause))
    print("selftest: %d counter(s) did not repeat" % bad)
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
