#!/usr/bin/env python3
"""Seed-to-seed spread of the end-to-end metrics.

Runs perfbench/run.py once per seed on one workload (sequentially, so runs
do not perturb each other) and prints, per metric, the median over seeds
and the distance between the first and third quartile as a share of the
median -- the steadiness figure each metric's bound in BENCHMARK.json is
judged against.

    python3 perfbench/spread.py --workload bisect_fork --seeds 1-10
    python3 perfbench/spread.py --workload bisect_fork --seeds 1,1,1,1,1
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent


def seed_list(text):
    """"1-10" or "1,1,1" (a repeated seed measures run-to-run noise alone)."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    ap.add_argument("--seconds", type=int)
    args = ap.parse_args()
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    values = {}
    for seed in args.seeds:
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True)
        result = json.loads(out.stdout.strip().split("\n")[-1])
        if out.returncode != 0 or not result["correct"]:
            print(f"seed {seed}: FAILED (exit {out.returncode})")
            print(out.stdout[-2000:])
            return 1
        row = []
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            row.append(f"{name}={m['value']:.6g}")
        print(f"seed {seed}: " + " ".join(row), flush=True)

    print(f"{'metric':40} {'median':>14} {'iqr/median':>11} {'bound/3':>8}")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        limit = f"{bound / 3:.4f}" if bound else "-"
        print(f"{name:40} {med:14.6g} {spread:11.4f} {limit:>8}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
