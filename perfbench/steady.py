#!/usr/bin/env python3
"""Repeat a workload over several seeds and give a steadiness verdict.

    python3 perfbench/steady.py --workload knn_small [--runs 10] \
        [--first-seed 1] [--trace 0|1] [--out result.json]

Each run uses its own seed. For every metric the script prints the median
and the quartiles over the runs, and the spread: the distance between the
quartiles as a share of the median. An end-to-end metric whose spread
exceeds its bound in BENCHMARK.json prints "noise too high" in place of its
median: a figure that noisy supports no conclusion, and none is reported.
Per-layer metrics have no bound and are always printed. --out writes all
values as JSON (the format of perfbench/trajectory/).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NOISE = "noise too high"


def summarize(values, bound):
    """Median, quartiles, spread and verdict of one metric's run values."""
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    spread = (q3 - q1) / abs(median) if median else (0.0 if q3 == q1 else float("inf"))
    verdict = NOISE if bound is not None and spread > bound else "steady"
    return {"median": median, "q1": q1, "q3": q3, "spread": spread,
            "bound": bound, "verdict": verdict, "values": values}


def format_row(name, unit, s):
    shown = NOISE if s["verdict"] == NOISE else f"{s['median']:.6g}"
    bound = "-" if s["bound"] is None else f"{s['bound']:.3f}"
    return (f"{name:32s} {shown:>16s} {unit:8s} q1 {s['q1']:<12.6g} "
            f"q3 {s['q3']:<12.6g} spread {s['spread']:.4f} bound {bound}")


def run_once(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {out.returncode}")
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]

    runs = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        result = run_once(args.workload, seed, seconds, args.trace)
        if not result["correct"]:
            raise SystemExit(f"seed {seed}: incorrect result {result}")
        runs.append(result)
        print(f"seed {seed}: ok", file=sys.stderr)

    summary = {}
    for name in sorted(runs[0]["metrics"]):
        values = [r["metrics"][name]["value"] for r in runs]
        unit = runs[0]["metrics"][name]["unit"]
        summary[name] = dict(summarize(values, bounds.get(name)), unit=unit)
        print(format_row(name, unit, summary[name]))
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"workload": args.workload, "trace": args.trace,
                       "run_seconds": seconds,
                       "seeds": list(range(args.first_seed,
                                           args.first_seed + args.runs)),
                       "metrics": summary}, f, indent=1, sort_keys=True)
    noisy = [n for n, s in summary.items() if s["verdict"] == NOISE]
    return 1 if noisy else 0


if __name__ == "__main__":
    sys.exit(main())
