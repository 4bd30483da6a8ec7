#!/usr/bin/env python3
"""Steadiness report for the benchmark defined in BENCHMARK.json.

Runs every workload in two independent sets of ten runs, each run with its
own seed and BENCHMARK.json's run_seconds, and prints each end-to-end
metric's median and quartiles per set, its spread (quartile distance as a
share of the median) against the metric's bound, and how far the second
set's median moved from the first's in the worse direction. Run from the
repository root:

    python3 perfbench/steadiness.py

Exits non-zero when a spread exceeds its bound or a median moved by more
than its bound. Runs alternate between workloads so that slow drift of the
host spreads over all of them.
"""

import json
import statistics
import subprocess
import sys

SETS = 2
RUNS = 10


def run_once(command, workload, seed, seconds):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(argv, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        sys.exit(f"{workload} seed {seed} exited {out.returncode}:\n{out.stderr}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed} failed its output checks:\n{out.stdout}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]

    # samples[set][workload][metric] -> list of values
    samples = []
    for s in range(SETS):
        per = {w: {m["name"]: [] for m in metrics} for w in workloads}
        for i in range(RUNS):
            for w in workloads:
                seed = 1000 * (s + 1) + i
                values = run_once(bench["command"], w, seed, bench["run_seconds"])
                for m in metrics:
                    per[w][m["name"]].append(values[m["name"]])
                print(f"set {s + 1} run {i + 1} {w}: "
                      + ", ".join(f"{k}={v:.6g}" for k, v in values.items()),
                      file=sys.stderr, flush=True)
        samples.append(per)

    ok = True
    print(f"{'workload':<16} {'metric':<20} {'set':>3} {'q1':>12} {'median':>12} "
          f"{'q3':>12} {'spread':>8} {'bound':>6}")
    for w in workloads:
        for m in metrics:
            name, bound = m["name"], m["bound"]
            medians = []
            for s, per in enumerate(samples):
                q1, med, q3 = statistics.quantiles(per[w][name], n=4)
                spread = (q3 - q1) / med if med else float("inf")
                medians.append(med)
                flag = ""
                if spread > bound:
                    flag, ok = " SPREAD>BOUND", False
                elif spread > bound / 3:
                    flag = " (over a third of the bound)"
                print(f"{w:<16} {name:<20} {s + 1:>3} {q1:>12.6g} {med:>12.6g} "
                      f"{q3:>12.6g} {spread:>8.4f} {bound:>6}{flag}")
            moved = (medians[-1] - medians[0]) / medians[0] if medians[0] else 0.0
            worse = moved if m["better"] == "lower" else -moved
            flag = ""
            if worse > bound:
                flag, ok = " DRIFT>BOUND", False
            print(f"{w:<16} {name:<20} {'':>3} median moved {moved:+.4f}{flag}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
