#!/usr/bin/env python3
"""Run-to-run spread of every end-to-end metric, as the acceptance check
computes it.

Runs the BENCHMARK.json command `--runs` times per workload, each with
another seed, and prints per metric the median and the distance between the
first and third quartile (statistics.quantiles(values, n=4)) as a share of
the median, next to the metric's bound. A spread at or above a third of the
bound is marked. The last column is the spread of the host's own times: each
run's value with its mean calibration rescaling (printed on standard error)
taken back out. Run from the repository root:

    python3 perfbench/spread.py --runs 10 [--seconds N] [workload ...]
"""

import argparse
import json
import re
import statistics
import subprocess
import sys


def run(bench, workload, seed, seconds, trace):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    out = subprocess.run(cmd, capture_output=True, text=True, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: incorrect output\n{out.stderr}")
    factor = re.search(r"rescaled by about ([0-9.]+)", out.stderr)
    result["rescaling"] = float(factor.group(1)) if factor else 1.0
    return result


def host_value(name, metric, rescaling):
    """A rescaled metric as the host measured it."""
    if metric["unit"] == "1/s":
        return metric["value"] * rescaling
    if metric["unit"] in ("s", "ms", "us", "ns"):
        return metric["value"] / rescaling
    return metric["value"]


def spread(v):
    q = statistics.quantiles(v, n=4)
    return (q[2] - q[0]) / statistics.median(v)


def main():
    bench = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("workloads", nargs="*",
                    default=[w["name"] for w in bench["workloads"]])
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for w in args.workloads:
        values, host = {}, {}
        for i in range(args.runs):
            seed = args.first_seed + i
            result = run(bench, w, seed, args.seconds, 0)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                host.setdefault(name, []).append(host_value(name, m, result["rescaling"]))
            print(f"{w} seed {seed}: " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items())
                + f" rescaling={result['rescaling']}", flush=True)
        print(f"\n| {w} | median | IQR / median | bound | host IQR / median |")
        print("|---|---|---|---|---|")
        for name, v in values.items():
            s = spread(v)
            mark = "" if s < bounds[name] / 3 else " (≥ bound/3)"
            print(f"| {name} | {statistics.median(v):.6g} | {s:.3f}{mark} | "
                  f"{bounds[name]} | {spread(host[name]):.3f} |")
        print(flush=True)


if __name__ == "__main__":
    main()
