#!/usr/bin/env python3
"""Run the benchmark once per seed and report each metric's spread.

    python3 gillbench/spread.py --workload bmp-firehose --seeds 1-10 [--trace 0]

Runs BENCHMARK.json's command from the current directory (the checkout
root), once per seed, and prints for every metric of the result lines its
median, its quartiles (Python's statistics.quantiles, n=4) and the
distance between the quartiles as a share of the median. For end-to-end
metrics the spread is compared with the metric's bound.
"""
import argparse
import json
import statistics
import subprocess
import sys


def seeds(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", type=seeds)
    ap.add_argument("--trace", default="0", choices=["0", "1"])
    args = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values = {}
    for seed in args.seeds:
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]), "--trace", args.trace,
        ]
        run = subprocess.run(cmd, capture_output=True, text=True)
        lines = run.stdout.strip().splitlines()
        if run.returncode != 0 or not lines:
            print(f"seed {seed}: exit {run.returncode}")
            print(run.stdout[-2000:], run.stderr[-2000:], sep="\n")
            sys.exit(1)
        result = json.loads(lines[-1])
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    for name, vs in values.items():
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        verdict = "" if bound is None else f"  bound {bound} {'ok' if spread <= bound else 'TOO WIDE'}"
        print(f"{name:42s} median {med:14.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  spread {spread:6.3f}{verdict}")


if __name__ == "__main__":
    main()
