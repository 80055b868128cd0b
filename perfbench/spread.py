#!/usr/bin/env python3
"""Measure the run-to-run spread of the end-to-end metrics.

Runs the benchmark once per seed on each workload and prints, per metric,
the median and the distance between the first and third quartiles as a
share of the median, next to the metric's bound in BENCHMARK.json, then
each seed's value as a share of the median.

    python3 perfbench/spread.py --seeds 10 [--workloads sim-stream,net-stream]
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    worst = 0.0
    for wl in args.workloads.split(","):
        values = {name: [] for name in bounds}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            out = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", wl,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True)
            if out.returncode != 0:
                sys.exit(f"{wl} seed {seed}: exit {out.returncode}\n{out.stderr}")
            res = json.loads(out.stdout.strip().splitlines()[-1])
            if not res["correct"] or res["failed"]:
                sys.exit(f"{wl} seed {seed}: correct={res['correct']} failed={res['failed']}\n{out.stderr}")
            for name in bounds:
                values[name].append(res["metrics"][name]["value"])
        for name, vs in values.items():
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med
            if name != "setup_s":
                worst = max(worst, spread / bounds[name])
            print(f"{wl:12s} {name:14s} median {med:12.6g}  spread {spread:7.4f}  "
                  f"bound {bounds[name]:.2f}  {'ok' if spread < bounds[name] / 3 else 'WIDE'}  "
                  + " ".join(f"{v / med:.2f}" for v in vs))
    print(f"worst spread/bound (setup_s excluded): {worst:.3f}")


if __name__ == "__main__":
    main()
