#!/usr/bin/env python3
"""Per-layer time budget of each workload.

Alternates `--pairs` untraced and traced runs per workload (BENCHMARK.json
command, same seed), takes the median of every metric, and prints, per
workload, the traced layer rows next to the untraced end-to-end time per
unit of work (per command for the serve workload, per scheduling cycle for
the simulator ones). Run from the repository root:

    python3 perfbench/budget.py [--seed 1] [--pairs 3] [--seconds N] [workload ...]
"""

import argparse
import json
import statistics

from spread import run

SERVE_ROWS = [
    ("read the command log", "stream.read_ns_per_cmd"),
    ("parse_commands", "stream.parse_ns_per_cmd"),
    ("decide (replay_incremental)", "incremental.decide_ns_per_cmd"),
    ("render (format_decision)", "stream.render_ns_per_line"),
    ("Server pipeline (threads, channels)", "serve.pipeline_ns_per_cmd"),
    ("write the decision log", "serve.write_ns_per_line"),
]

SIM_ROWS = [
    ("SystemSim event loop", "system.loop_us_per_cycle"),
    ("transform.configure_max_flow", "transform.configure_us_per_cycle"),
    ("max_flow.solve_with (Dinic)", "max_flow.solve_us_per_cycle"),
    ("hetero::transform_max", "hetero.transform_us_per_cycle"),
    ("multicommodity::max_flow (LP)", "lp.solve_ms_per_cycle"),
    ("mapping extraction", "mapping.extract_us_per_cycle"),
]


def table(workload, e2e, v):
    if workload.startswith("serve_"):
        unit, total = "ns / command", 1e9 / e2e["decisions_per_s"]
        rows = [(label, v[key]) for label, key in SERVE_ROWS]
    else:
        unit, total = "µs / cycle", 1e6 / e2e["cycles_per_s"]
        rows = [(label, v[key] * (1e3 if key.startswith("lp.") else 1))
                for label, key in SIM_ROWS]
        rows = [r for r in rows if r[1] > 0]
        named = sum(t for label, t in rows[1:])
        rows.append(("rest of the scheduler cycle", v["scheduler.cycle_us"] - named))
    layer_sum = sum(t for _, t in rows)
    print(f"\n#### {workload} ({unit})\n")
    print("| layer | time | share |")
    print("|---|---:|---:|")
    for label, t in rows:
        print(f"| {label} | {t:.4g} | {t / layer_sum:.1%} |")
    print(f"| **sum of layers (traced)** | {layer_sum:.4g} | |")
    print(f"| **end to end (untraced)** | {total:.4g} | "
          f"sum / end to end = {layer_sum / total:.3f} |")
    print(f"\ntracing overhead (traced / untraced sample time): "
          f"{v['trace.overhead_ratio']:.3f}")


def main():
    bench = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--pairs", type=int, default=3)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("workloads", nargs="*",
                    default=[w["name"] for w in bench["workloads"]])
    args = ap.parse_args()
    for w in args.workloads:
        runs = {0: [], 1: []}
        for _ in range(args.pairs):
            for trace in (0, 1):
                runs[trace].append(run(bench, w, args.seed, args.seconds, trace)["metrics"])
        e2e, layers = ({k: statistics.median(r[k]["value"] for r in runs[t]) for k in runs[t][0]}
                       for t in (0, 1))
        table(w, e2e, layers)


if __name__ == "__main__":
    main()
