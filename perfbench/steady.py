#!/usr/bin/env python3
"""Steadiness check for the benchmark.

Runs each workload N times with different seeds and prints, per end-to-end
metric, the median, the spread (distance between the first and third
quartiles as a share of the median, as statistics.quantiles(n=4) gives
them) and the metric's bound from BENCHMARK.json, so the bounds are shown
rather than guessed. It also prints the share of failed operations per run.

    python3 perfbench/steady.py --runs 10 [--workload geo-paced] [--seed0 100]

Run it from the root of the repository. Exits non-zero when a run fails or
a spread (other than setup_s) exceeds its bound.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--workload", action="append", help="repeatable; default all")
    ap.add_argument("--seconds", type=int, help="default: run_seconds from BENCHMARK.json")
    ap.add_argument("--raw", action="store_true", help="also print every run's value")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    names = args.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    ok = True
    for name in names:
        values, shares, walls = {}, [], []
        for i in range(args.runs):
            seed = args.seed0 + i
            cmd = bench["command"] + ["--workload", name, "--seed", str(seed),
                                      "--seconds", str(seconds), "--trace", "0"]
            start = time.monotonic()
            proc = subprocess.run(cmd, capture_output=True, text=True)
            walls.append(time.monotonic() - start)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                ok = False
                continue
            res = json.loads(lines[-1])
            if not res["correct"]:
                ok = False
            shares.append(res["failed"] / res["attempted"])
            for k, v in res["metrics"].items():
                values.setdefault(k, []).append(v["value"])
        print(f"\n{name}: {len(walls)} runs, seeds {args.seed0}..{args.seed0 + args.runs - 1}, "
              f"{seconds} s each, wall {min(walls):.1f}-{max(walls):.1f} s")
        print(f"  failed share per run: {sorted(set(shares))}")
        print(f"  {'metric':26} {'median':>14} {'spread':>8} {'bound':>6}  unit")
        for k in sorted(values):
            v = values[k]
            if len(v) < 2:
                continue
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            b = bounds.get(k)
            bound = b["bound"] if b else float("nan")
            flag = ""
            if b and k != "setup_s" and spread > bound:
                flag, ok = "  OVER BOUND", False
            elif b and spread > bound / 3:
                flag = "  above a third of the bound"
            unit = b["unit"] if b else ""
            print(f"  {k:26} {statistics.median(v):14.6g} {spread:8.4f} {bound:6.2f}  {unit}{flag}")
            if args.raw:
                print("    " + " ".join(f"{x:.4g}" for x in v))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
