#!/usr/bin/env python3
"""Steadiness check for the benchmark described by BENCHMARK.json.

Runs every workload (or those named) once per seed and prints, for each
end-to-end metric, the median, the quartiles and the spread
(q3 - q1) / median next to the metric's bound. With --trace it also makes
one traced run per seed and prints the per-layer medians and the tracing
overhead: traced minus untraced end-to-end medians.

Run from the repository root:

    python3 perfbench/steady.py --runs 10
    python3 perfbench/steady.py --runs 5 --workloads paper-queries --trace

Exits non-zero if a run fails, reports incorrect results, the share of
failed operations differs between runs, or a spread exceeds its bound.
"""

import argparse
import json
import re
import statistics
import subprocess
import sys


def run_once(command, workload, seed, seconds, trace):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    proc = subprocess.run(args, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"run failed ({workload}, seed {seed}): exit {proc.returncode}\n"
                 f"{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    traced_e2e = {}
    for line in lines:
        m = re.match(r"traced end-to-end: (\{.*\})$", line)
        if m:
            traced_e2e = json.loads(m.group(1))
    return result, traced_e2e


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--trace", action="store_true")
    opts = ap.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    if opts.workloads:
        names = [n for n in opts.workloads.split(",") if n]
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    layers = {m["name"]: m for m in spec["per_layer"]}
    status = 0
    for workload in names:
        values = {name: [] for name in e2e}
        traced = {name: [] for name in e2e}
        layer_values = {name: [] for name in layers}
        shares = set()
        for i in range(opts.runs):
            seed = opts.first_seed + i
            result, _ = run_once(spec["command"], workload, seed, seconds, False)
            if not result["correct"]:
                print(f"{workload} seed {seed}: incorrect results")
                status = 1
            if set(result["metrics"]) != set(e2e):
                print(f"{workload}: metric names differ from BENCHMARK.json")
                status = 1
            shares.add((result["failed"], result["attempted"]))
            for name in e2e:
                values[name].append(result["metrics"][name]["value"])
            if opts.trace:
                tresult, te2e = run_once(spec["command"], workload, seed, seconds, True)
                if set(tresult["metrics"]) != set(layers):
                    print(f"{workload}: per-layer names differ from BENCHMARK.json")
                    status = 1
                for name in layers:
                    layer_values[name].append(tresult["metrics"][name]["value"])
                for name in e2e:
                    traced[name].append(te2e[name]["value"])
        fractions = {f / a for f, a in shares}
        if len(fractions) > 1:
            print(f"{workload}: failed share differs between runs: {sorted(shares)}")
            status = 1
        print(f"\n{workload} ({opts.runs} runs, {seconds} s, failed/attempted "
              f"{sorted(fractions)})")
        print(f"  {'metric':<22}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>9}"
              f"{'bound':>7}  note")
        for name, m in e2e.items():
            med, q1, q3, s = spread(values[name])
            note = "ok" if s < m["bound"] / 3 else (
                "within bound" if s <= m["bound"] else "TOO WIDE")
            if s > m["bound"]:
                status = 1
            print(f"  {name:<22}{med:>12.4f}{q1:>12.4f}{q3:>12.4f}{s:>9.3f}"
                  f"{m['bound']:>7.2f}  {note}")
        if opts.trace:
            print("  tracing overhead (traced - untraced median):")
            for name in e2e:
                t, u = statistics.median(traced[name]), statistics.median(values[name])
                print(f"    {name:<22}{t - u:>+12.4f} ({(t - u) / u:+.1%})")
            print("  per-layer medians:")
            for name, m in layers.items():
                print(f"    {name:<36}{statistics.median(layer_values[name]):>14.4f} {m['unit']}")
    sys.exit(status)


if __name__ == "__main__":
    main()
