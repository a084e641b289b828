#!/usr/bin/env python3
"""Run the benchmark over several workloads and seeds and summarise it.

Prints, for each workload and metric of BENCHMARK.json, the median over the
seeds, its quartiles and the spread (q3 - q1) / median next to the metric's
bound, plus the share of failed operations. Runs are made one at a time.

Usage (from the repository root):

    python3 perfbench/report.py                       # every workload, seed 1
    python3 perfbench/report.py --seeds 1-10          # the stability check
    python3 perfbench/report.py --trace 1             # per-layer metrics
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit code {out.returncode}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", default="1", help="e.g. 1-10 or 1,3,5")
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    declared = spec["per_layer" if args.trace else "end_to_end"]
    for workload in args.workloads.split(","):
        results = []
        for seed in parse_seeds(args.seeds):
            results.append(run_once(workload, seed, args.seconds, args.trace))
            print(f"# {workload} seed {seed} done", file=sys.stderr, flush=True)
        correct = all(r["correct"] for r in results)
        failed = sum(r["failed"] for r in results)
        attempted = sum(r["attempted"] for r in results)
        print(f"{workload}: runs={len(results)} correct={correct} "
              f"ops_failed_frac={failed / attempted:.6g} ({failed} of {attempted})")
        for d in declared:
            values = [r["metrics"][d["name"]]["value"] for r in results]
            med = statistics.median(values)
            line = f"  {d['name']:<44} {med:>14.6g} {d['unit']:<6}"
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / med if med else float("nan")
                line += f" [{q1:.6g}, {q3:.6g}] spread {spread:.3f}"
            if "bound" in d:
                line += f" bound {d['bound']}"
            print(line, flush=True)


if __name__ == "__main__":
    main()
