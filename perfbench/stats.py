#!/usr/bin/env python3
"""Run workloads repeatedly, one seed per run, and print medians, quartiles
and spread against the bounds in BENCHMARK.json.

    python3 perfbench/stats.py [--workloads maps,cli] [--runs 10]
                               [--seed0 1] [--trace 0]

Run from the root of the checkout.  The spread of a metric is the distance
between the first and third quartile of its values (statistics.quantiles,
n=4) as a share of their median; a benchmark is steady when every spread
but setup_s's stays below its bound (the aim is a third of it).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> None:
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    spec = {m["name"]: m for m in bench["end_to_end" if not args.trace else "per_layer"]}
    record = {}
    for wl in args.workloads.split(","):
        runs = []
        for i in range(args.runs):
            seed = args.seed0 + i
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", wl,
                   "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                   "--trace", str(args.trace)]
            t0 = perf_counter()
            out = subprocess.run(cmd, capture_output=True, text=True, check=True)
            wall = perf_counter() - t0
            doc = json.loads(out.stdout.strip().splitlines()[-1])
            runs.append(doc)
            share = doc["failed"] / doc["attempted"]
            print(f"{wl} seed {seed}: correct={doc['correct']} failed {doc['failed']}/"
                  f"{doc['attempted']} ({share:.4f}), {wall:.1f} s wall", file=sys.stderr)
        record[wl] = runs
        print(f"\n== {wl}: {len(runs)} runs, failed shares "
              f"{sorted(set(round(r['failed'] / r['attempted'], 12) for r in runs))}, "
              f"all correct: {all(r['correct'] for r in runs)}")
        print(f"{'metric':<28}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>9}{'bound':>8}  ok")
        for name, m in spec.items():
            vals = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            bound = m.get("bound")
            ok = "" if bound is None else ("yes" if spread <= bound / 3 else
                                           "within bound" if spread <= bound else "NO")
            b = "" if bound is None else f"{bound:.2f}"
            print(f"{name:<28}{med:>12.5g}{q1:>12.5g}{q3:>12.5g}{spread:>9.3f}{b:>8}  {ok}")
    os.makedirs("perfbench-results", exist_ok=True)
    with open(os.path.join("perfbench-results", f"stats-trace{args.trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(record, fh)


if __name__ == "__main__":
    main()
