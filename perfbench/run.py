#!/usr/bin/env python3
"""Toolchain benchmark: compile, verify and execute workloads.

    python3 perfbench/run.py --workload {compile,verify,execute} --seed N \
        --seconds S [--trace 0|1] [--trace-file PATH]

Run from the repository root.  Builds perfbench/tcbench (a dune project
of its own) with dune, then runs passes of the workload, each in a
fresh process, one at a time, until --seconds have gone by (at least
one pass), set-up-only processes included.  Pass k draws
its inputs from (seed, k).  With --trace 0 the last line of stdout is a
JSON object with every end-to-end metric; with --trace 1 the passes
alternate untraced/traced, the traced pipeline must reproduce the
untraced one's deterministic facts, and the object carries every
per-layer metric instead.  See perfbench/README.md.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC = os.path.join(HERE, os.pardir, "BENCHMARK.json")
WORKLOADS = ("compile", "verify", "execute")
# Set-up is measured in at least this many fresh processes per run
# (more when set-up takes under half a second); passes count, set-up-only
# processes make up the rest.
SETUP_SAMPLES = 3
QUICK_SETUP_SAMPLES = 15


def setup_samples(setups):
    return SETUP_SAMPLES if median(setups) > 0.5 else QUICK_SETUP_SAMPLES


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build(root):
    """Build the pass executable from the sources in [root]; returns its path.

    perfbench/tcbench is a dune project of its own.  It is built in a
    source tree under the build directory that links its files and the
    repository's lib/ side by side, so the two form one project and the
    libraries (private to the repository's project) are in reach.
    """
    pkg = os.path.join(root, "perfbench", "tcbench")
    for need in ("lib", os.path.join(pkg, "dune-project")):
        if not os.path.exists(os.path.join(root, need)):
            fail("%s not found: run from the root of a full checkout" % need)
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                                or ".bench_build")
    src = os.path.join(build_dir, "tcbench-src")
    os.makedirs(src, exist_ok=True)
    links = {n: os.path.join(pkg, n) for n in os.listdir(pkg)}
    links["lib"] = os.path.join(root, "lib")
    for n in os.listdir(src):
        os.remove(os.path.join(src, n))
    for n, target in links.items():
        os.symlink(os.path.abspath(target), os.path.join(src, n))
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", src, "--build-dir",
           os.path.join(build_dir, "tcbench"), "./tcbench.exe"]
    try:
        done = subprocess.run(cmd, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True)
    except OSError as e:
        fail("cannot run dune: %s" % e)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        fail("build failed")
    return os.path.join(build_dir, "tcbench", "default", "tcbench.exe")


def run_pass(exe, workload, seed, draw, traced=False, setup_only=False):
    """One fresh process; returns its JSON object plus its set-up time.

    A set-up-only process's object carries just the ops of its set-up
    (the set-up compiles of verify and execute)."""
    cmd = [exe, workload, str(seed), str(draw)]
    if traced:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.time()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)
    try:
        stdout, stderr = proc.communicate()
    finally:
        # reached on SIGTERM too (see main): never leave a pass behind
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        sys.stderr.write(stderr)
        fail("%s pass exited with %d" % (workload, proc.returncode))
    lines = stdout.splitlines()
    ready = [l.split() for l in lines if l.startswith("ready ")]
    if not ready:
        fail("%s pass never became ready" % workload)
    out = json.loads(lines[-1])
    out["setup_s"] = float(ready[0][1]) - t0
    out["setup_compile_s"] = float(ready[0][2])
    return out


def median(xs):
    return statistics.median(xs)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--trace-file",
                    help="write the traced passes' spans here as JSON")
    args = ap.parse_args()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = os.getcwd()
    exe = build(root)
    with open(SPEC) as f:
        spec = json.load(f)

    # Passes run one at a time while the next one, plus the set-up-only
    # processes still owed after it, is expected to end within --seconds;
    # there is always at least one pass (two when traced), so a workload
    # whose pass alone outlasts --seconds overruns it.  A traced run
    # alternates untraced and traced passes, each pair on the same draw,
    # so the two can be compared.
    traced = bool(args.trace)
    passes, setup_only, setups, compiles = [], [], [], []
    start = time.time()
    k = 0
    while True:
        p = run_pass(exe, args.workload, args.seed, k // 2 if traced else k,
                     traced=traced and k % 2 == 1)
        p["traced"] = traced and k % 2 == 1
        passes.append(p)
        setups.append(p["setup_s"])
        if not p["traced"]:
            compiles.append(p["compile_s"])
        k += 1
        elapsed = time.time() - start
        owed = max(0, setup_samples(setups) - k - 1)
        if (k >= (2 if traced else 1)
                and elapsed * (k + 1) / k + owed * median(setups) > args.seconds):
            break
    while len(setups) < setup_samples(setups):
        p = run_pass(exe, args.workload, args.seed, k, setup_only=True)
        setup_only.append(p)
        setups.append(p["setup_s"])
        # verify and execute compile in set-up, so these samples count
        if p["setup_compile_s"] > 0:
            compiles.append(p["setup_compile_s"])
        k += 1
    run_s = time.time() - start

    plain = [p for p in passes if not p["traced"]]
    attempted = sum(p["ops"] for p in passes + setup_only)
    failed = sum(p["ops_failed"] for p in passes + setup_only)
    correct = failed == 0
    notes = []
    for p in passes + setup_only:
        for msg in p["failures"]:
            notes.append("FAILED %s: %s" % (p["run_id"], msg))

    if traced:
        # The traced breakdown must describe the same programs.
        for u, t in zip(passes[0::2], passes[1::2]):
            if t["fingerprint"] != u["fingerprint"]:
                correct = False
                diff = [l for l in t["fingerprint"] if l not in u["fingerprint"]]
                notes.append("FINGERPRINT MISMATCH %s: %s" % (t["run_id"], diff[:5]))

    def med(key, ps=plain):
        return median([p[key] for p in ps])

    e2e = {
        "setup_s": median(setups),
        "wall_s": med("wall_s"),
        "compile_s": median(compiles),
        "peak_rss_mb": med("peak_rss_mb"),
        "ok_frac": (attempted - failed) / attempted,
        "impact_geomean": med("impact_geomean"),
        "peak_ratio_geomean": med("peak_ratio_geomean"),
        "allocs_pack": med("allocs_pack"),
        "cert_proved_frac": med("cert_proved_frac"),
        "lint_decided_frac": med("lint_decided_frac"),
    }
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    print("workload %s seed %d: %d passes, %d set-ups in %.1f s, ops %d, "
          "ops_failed %d, fail_frac %.6g"
          % (args.workload, args.seed, len(passes), len(setups), run_s,
             attempted, failed, failed / attempted))
    for n in notes:
        print(n)
    print("  per pass wall_s: %s" % " ".join("%.3f%s" % (p["wall_s"], "t" * p["traced"])
                                            for p in passes))
    print("  per process setup_s: %s" % " ".join("%.4f" % x for x in setups))

    if not traced:
        metrics = {m["name"]: {"value": e2e[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
        for name, v in e2e.items():
            print("  %-20s %.6g %s" % (name, v, units[name]))
    else:
        tp = [p for p in passes if p["traced"]]
        layers = {}
        for m in spec["per_layer"]:
            name = m["name"]
            if name == "trace.overhead_s":
                v = med("wall_s", tp) - med("wall_s")
            elif name == "trace.wall_s":
                v = med("wall_s", tp)
            else:
                v = median([p["layers"].get(name) or 0.0 for p in tp])
            layers[name] = v
            print("  %-34s %.6g %s" % (name, v, m["unit"]))
        metrics = {n: {"value": v, "unit": units[n]} for n, v in layers.items()}
        if args.trace_file:
            with open(args.trace_file, "w") as f:
                json.dump([{"run_id": p["run_id"], "spans": p["spans"]}
                           for p in tp], f)

    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
