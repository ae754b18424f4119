#!/usr/bin/env python3
"""Steadiness of the benchmark: runs workloads repeatedly, one seed per
run, and prints the median, quartiles and spread of every end-to-end
metric, plus each run's failed share.

    python3 perfbench/steady.py [--workload <name>]...

Each workload runs RUNS times, on seeds FIRST_SEED, FIRST_SEED + 1, ...,
for BENCHMARK.json's run_seconds. Run from the repository root. The
spread is (q3 - q1) / median, with the quartiles of Python's
statistics.quantiles(values, n=4); a metric is flagged when its spread
reaches a third of its bound in BENCHMARK.json (setup_s is reported but
not flagged, as its bound covers set-up drift between two sets of runs,
not spread).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUNS = 10
FIRST_SEED = 41


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", action="append")
    args = ap.parse_args()
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = True
    for w in workloads:
        values, shares = {}, set()
        for seed in range(FIRST_SEED, FIRST_SEED + RUNS):
            out = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", w,
                 "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, check=False)
            if out.returncode != 0:
                print(f"{w} seed {seed}: exit {out.returncode}")
                ok = False
                continue
            r = json.loads(out.stdout.strip().splitlines()[-1])
            ok &= r["correct"]
            shares.add((r["failed"], r["attempted"]))
            for name, m in r["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{w} seed {seed}: correct={r['correct']} "
                  f"failed {r['failed']}/{r['attempted']}", flush=True)
        fractions = {f / a for f, a in shares}
        print(f"{w}: failed share {sorted(fractions)} over {len(shares)} distinct counts")
        ok &= len(fractions) <= 1
        for name, vs in values.items():
            q1, med, q3 = statistics.quantiles(vs, n=4)
            med = statistics.median(vs)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s" and spread >= bound / 3:
                flag = "  <-- spread >= bound/3"
                ok = False
            print(f"  {name:<18} median {med:<14.6g} q1 {q1:<14.6g} q3 {q3:<14.6g} "
                  f"spread {spread:.4f} bound {bound}{flag}", flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
