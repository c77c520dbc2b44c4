#!/usr/bin/env python3
"""Run every workload of BENCHMARK.json over several seeds and summarize.

Run from the repository root:

    python3 perfbench/suite.py                      # 1 seed, every metric
    python3 perfbench/suite.py --seeds 10           # spreads against bounds
    python3 perfbench/suite.py --trace 1            # per-layer metrics

For each workload and metric it prints the median over the seeds and,
with two or more seeds, the spread: the distance between the first and
third quartile (statistics.quantiles, n=4) as a share of the median.
An end-to-end spread above a third of the metric's bound is marked
"wide", one above the bound "OVER" (setup_s is exempt, as its bound
limits only the change of its median). --json writes every value.
The exit code is 1 if any run failed, gave a wrong answer or printed no
result.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return None, proc.returncode, proc.stderr[-2000:]
    return result, proc.returncode, proc.stderr[-2000:]


def spread(values):
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return med, None
    q = statistics.quantiles(values, n=4)
    return med, (q[2] - q[0]) / med


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=1, help="runs per workload")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workloads", nargs="*", help="default: all in BENCHMARK.json")
    parser.add_argument("--json", help="write all values to this file")
    args = parser.parse_args()
    if args.seeds < 1 or args.first_seed < 1:
        parser.error("--seeds and --first-seed must be positive")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    ok = True
    report = {}
    for workload in workloads:
        values = {}
        units = {}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            result, code, err = run_once(workload, seed, bench["run_seconds"], args.trace)
            if result is None or code != 0 or not result["correct"] or result["failed"]:
                ok = False
                print(f"{workload} seed {seed}: FAILED (exit {code})\n{err}", file=sys.stderr)
                if result is None:
                    continue
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
        print(f"== {workload} ({args.seeds} seed(s) from {args.first_seed})")
        report[workload] = values
        for name, vals in values.items():
            med, sp = spread(vals)
            line = f"  {name:32s} {med:14.4f} {units[name]:6s}"
            if sp is not None:
                line += f"  spread {sp:6.3f}"
                bound = bounds.get(name)
                if bound is not None and name != "setup_s":
                    line += "  OVER" if sp > bound else ("  wide" if sp > bound / 3 else "")
            print(line)
        sys.stdout.flush()
    if args.json:
        with open(args.json, "w") as f:
            json.dump(report, f, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
