#!/usr/bin/env python3
"""Run-to-run steadiness of the engine benchmark.

    python3 engine_bench/steadiness.py [--workloads a,b] [--runs 10]
                                       [--first-seed 1] [--seconds S]
                                       [--trace 0|1]

Runs each workload --runs times through engine_bench/run.py, one seed
per run (first-seed, first-seed+1, ...), plus one repeat of the first
seed. For every metric it prints the median, the spread (distance
between the first and third quartile, statistics.quantiles(n=4), as a
share of the median), the min and the max. A metric whose spread
exceeds its bound in BENCHMARK.json is flagged; setup_s is shown but
not flagged, because it is gated only on its median.

The repeat run must reproduce the first run's input hash and
prediction digest, and with --trace 1 every count metric exactly. The
exit code is non-zero when a run fails, reports correct=false, breaks
one of those repeat checks, or a metric is flagged.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        raise RuntimeError(f"{workload} seed {seed}: exit "
                           f"{proc.returncode}")
    result = json.loads(lines[-1])
    text = proc.stdout
    ident = {
        "input_hash": re.search(r"input hash (\w+)", text).group(1),
        "digest": re.search(r"prediction digest: cold (\w+)",
                            text).group(1),
    }
    return result, ident


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else 0.0


def main():
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()

    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in metrics}
    problems = []
    for workload in args.workloads.split(","):
        values = {m["name"]: [] for m in metrics}
        first = None
        seeds = [args.first_seed + i for i in range(args.runs)]
        for i, seed in enumerate(seeds + [seeds[0]]):
            result, ident = run_once(workload, seed, args.seconds,
                                     args.trace)
            if not result["correct"]:
                problems.append(f"{workload} seed {seed}: correct=false")
            if i == len(seeds):
                # The repeat of the first seed.
                if ident != first[1]:
                    problems.append(f"{workload}: seed {seed} repeat "
                                    f"changed {ident} -> {first[1]}")
                for m in metrics:
                    if m["unit"] != "count":
                        continue
                    a = first[0]["metrics"][m["name"]]["value"]
                    b = result["metrics"][m["name"]]["value"]
                    if a != b:
                        problems.append(f"{workload}: count {m['name']} "
                                        f"not exact ({a} vs {b})")
                continue
            if first is None:
                first = (result, ident)
            for name in values:
                values[name].append(result["metrics"][name]["value"])

        print(f"\n{workload}: {args.runs} runs, seeds {seeds[0]}.."
              f"{seeds[-1]}, {args.seconds} s, trace {args.trace}")
        print(f"  {'metric':28s} {'median':>14s} {'spread':>8s} "
              f"{'bound':>6s} {'min':>14s} {'max':>14s}")
        for name, vals in values.items():
            s = spread(vals)
            bound = bounds[name]
            flag = ""
            if bound is not None and name != "setup_s" and s > bound:
                flag = "  SPREAD > BOUND"
                problems.append(f"{workload}: {name} spread {s:.4f} > "
                                f"bound {bound}")
            elif bound is not None and s > bound / 3:
                flag = "  (above a third of bound)"
            print(f"  {name:28s} {statistics.median(vals):14.6g} "
                  f"{s:8.4f} {bound if bound is not None else '-':>6} "
                  f"{min(vals):14.6g} {max(vals):14.6g}{flag}")

    for p in problems:
        print("PROBLEM:", p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
