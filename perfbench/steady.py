#!/usr/bin/env python3
"""Steadiness self-check for the repository benchmark.

Runs one workload of the benchmark command named in BENCHMARK.json once
per seed and, for every end-to-end metric, reports the median and the
spread: the distance between the first and third quartile of the runs
(`statistics.quantiles(values, n=4)`) as a share of their median. With
`--sets 2` it runs the seeds twice and also compares the two medians.

It fails (exit 1) when a run is incorrect or does not finish, when a
spread other than `setup_s`'s exceeds the metric's bound, or when the
second set's median is worse than the first's by more than the bound.
It warns when a spread exceeds a third of its bound, the margin the
benchmark is tuned to keep.

Usage, from the repository root:
    python3 perfbench/steady.py --workload paper_relay --seeds 1-5
    python3 perfbench/steady.py --workload churn_overload_sharded --seeds 1-10 --sets 2
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(bench, workload, seed, seconds):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    wall = time.monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit(f"seed {seed}: exit {proc.returncode}, no result")
    return json.loads(lines[-1]), wall


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else float("inf")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-5", help="e.g. 1-10 or 3,5,8")
    ap.add_argument("--sets", type=int, default=1, choices=[1, 2])
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    metrics = bench["end_to_end"]
    seeds = parse_seeds(args.seeds)
    ok = True
    medians = []
    for s in range(args.sets):
        values = {m["name"]: [] for m in metrics}
        for seed in seeds:
            result, wall = run_once(bench, args.workload, seed, bench["run_seconds"])
            if not result["correct"] or result["failed"]:
                print(f"set {s + 1} seed {seed}: correct={result['correct']} "
                      f"failed={result['failed']}")
                ok = False
            for m in metrics:
                values[m["name"]].append(result["metrics"][m["name"]]["value"])
            shown = " ".join(f"{m['name']}={result['metrics'][m['name']]['value']:.6g}"
                             for m in metrics)
            print(f"set {s + 1} seed {seed}: {wall:.1f} s wall {shown}", flush=True)
        print(f"{'metric':<24} {'median':>16} {'spread':>8} {'bound':>6}")
        set_medians = {}
        for m in metrics:
            name, bound = m["name"], m["bound"]
            med, sp = spread(values[name])
            set_medians[name] = med
            flag = ""
            if sp > bound and name != "setup_s":
                flag, ok = "OVER BOUND", False
            elif sp > bound / 3:
                flag = "over bound/3"
            print(f"{name:<24} {med:>16.6g} {sp:>8.4f} {bound:>6} {flag}")
        medians.append(set_medians)
    if len(medians) == 2:
        for m in metrics:
            a, b = medians[0][m["name"]], medians[1][m["name"]]
            worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
            flag = ""
            if worse > m["bound"]:
                flag, ok = "WORSE THAN BOUND", False
            print(f"{m['name']:<24} second vs first median: {worse:+.4f} {flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
