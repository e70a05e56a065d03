#!/usr/bin/env python3
"""Measures how steady the benchmark is: runs each workload with several
seeds, in one or more sets, and prints per end-to-end metric and set the
median and the spread of its values (the distance between the first and
third quartile as a share of the median), host-normalized next to raw.
With two sets it also prints how far the second set's median lies from the
first, as a share of the first, next to the metric's bound.

    python3 perfbench/steadiness.py [--runs 10] [--sets 2] [--seconds 20] [WORKLOAD ...]

Run it from the root of a checkout.  Each set runs every workload once per
seed before the next set starts; set k uses seeds first_seed + k * runs and
up.  With `--json FILE` the per-run values are written out as well.
"""

import argparse
import json
import statistics
import subprocess
import sys

BENCHMARK = json.load(open("BENCHMARK.json"))
BOUNDS = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else float("nan")


def run(workload, seed, seconds):
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(command, capture_output=True, text=True, check=True).stdout
    detail, result = (json.loads(line) for line in out.strip().splitlines()[-2:])
    return detail["detail"], result


def summary(runs, name):
    """Median, normalized spread and raw spread of one metric over runs."""
    values = [r["metrics"][name]["value"] for _, r in runs]
    raw = [d["raw"][name] for d, _ in runs if name in d["raw"]]
    raw_spread = f"{spread(raw):.4f}" if len(raw) == len(runs) else "-"
    return statistics.median(values), f"{spread(values):.4f}", raw_spread


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--json")
    parser.add_argument("workloads", nargs="*")
    args = parser.parse_args()
    workloads = args.workloads or WORKLOADS
    record = {w: [] for w in workloads}
    for k in range(args.sets):
        for workload in workloads:
            seeds = range(args.first_seed + k * args.runs, args.first_seed + (k + 1) * args.runs)
            record[workload].append([run(workload, seed, args.seconds) for seed in seeds])
            print(f"set {k + 1}: {workload} done", file=sys.stderr, flush=True)

    columns = ["workload", "metric"]
    for k in range(args.sets):
        columns += [f"median {k + 1}", f"spread {k + 1}", f"raw spread {k + 1}"]
    columns += ["median shift"] if args.sets == 2 else []
    columns += ["bound"]
    print("| " + " | ".join(columns) + " |")
    print("|---" * len(columns) + "|")
    for workload in workloads:
        sets = record[workload]
        for name in BOUNDS:
            row = f"| {workload} | {name} |"
            medians = []
            for runs in sets:
                med, spread_, raw_spread = summary(runs, name)
                medians.append(med)
                row += f" {med:.6g} | {spread_} | {raw_spread} |"
            if args.sets == 2:
                shift = abs(medians[1] - medians[0]) / medians[0] if medians[0] else 0.0
                row += f" {shift:.4f} |"
            print(row + f" {BOUNDS[name]} |")
        row = f"| {workload} | host.probe_ms |"
        for runs in sets:
            probes = [d["host.probe_ms"] for d, _ in runs]
            row += f" {statistics.median(probes):.4g} | {spread(probes):.4f} | - |"
        print(row + (" - |" if args.sets == 2 else "") + " - |")
        for k, runs in enumerate(sets):
            worst = max(d["latency_max_ms"] for d, _ in runs)
            failed = sum(r["failed"] for _, r in runs)
            print(f"{workload} set {k + 1}: slowest op {worst:.1f} ms at reference speed "
                  f"(SLO {runs[0][0]['slo_ms']:g} ms), {failed} failed op(s)", file=sys.stderr)
    if args.json:
        with open(args.json, "w") as f:
            json.dump(record, f, indent=1)


if __name__ == "__main__":
    main()
