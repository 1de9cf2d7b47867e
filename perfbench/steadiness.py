#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, and the stored baseline.

Run from the root of a checkout:

    python3 perfbench/steadiness.py --runs 10
    python3 perfbench/steadiness.py --runs 10 --baseline perfbench/baseline.json
    python3 perfbench/steadiness.py --runs 10 --against perfbench/baseline.json

Runs the benchmark `--runs` times on each workload, with seeds 1, 2, ...,
one run after another, and prints for every metric of the run (the
bounded ones of BENCHMARK.json and the raw times) its median, quartiles
and spread, (Q3 - Q1) / median; bounded metrics are shown against their
bound.  With `--baseline FILE` it also makes one traced run per workload
at seed 0 and writes every metric of every workload, with the
environment, to FILE.  With `--against FILE` it compares each bounded
metric's median with the one stored in that baseline.  Exits 1 when a
bounded metric spreads more than a third of its bound, or its median
is worse than the stored one by more than the bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"


def run_benchmark(workload, seed, trace, seconds):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{done.stderr}")


def load_result(workload, seed, trace):
    """(metric -> value, environment) from the run's result file."""
    path = OUT / f"result-{workload}-seed{seed}-trace{trace}.json"
    result = json.loads(path.read_text())
    return {k: v["value"] for k, v in result["metrics"].items()}, result["env"]


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def summarize(workload, runs, bounds):
    """Print and return the spread of each metric over `runs`, and whether
    every bounded metric spreads less than a third of its bound."""
    out, steady = {}, True
    for name in runs[0]:
        s = summary([r[name] for r in runs])
        out[name] = s
        verdict = ""
        if name in bounds:
            within = s["spread"] <= bounds[name] / 3
            steady = steady and within
            verdict = (f"(bound {bounds[name]}, "
                       f"{'below' if within else 'NOT below'} a third)")
        print(f"  {workload:<13} {name:<17} median {s['median']:<10.4g} "
              f"q1 {s['q1']:<10.4g} q3 {s['q3']:<10.4g} spread {s['spread']:.3f} {verdict}")
    return out, steady


def compare(workload, stats, old, bounds, better):
    """Print each bounded metric's median against the stored one; True
    when none is worse by more than its bound."""
    ok = True
    for name, bound in bounds.items():
        now, was = stats[name]["median"], old[name]["median"]
        worse = (now - was) / was if better[name] == "lower" else (was - now) / was
        ok = ok and worse <= bound
        print(f"  {workload:<13} {name:<17} median {now:<10.4g} stored {was:<10.4g} "
              f"worse by {worse:+.3f} (bound {bound})")
    return ok


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workload", action="append", choices=names)
    ap.add_argument("--baseline", type=Path)
    ap.add_argument("--against", type=Path)
    args = ap.parse_args()
    stored = json.loads(args.against.read_text())["workloads"] if args.against else {}
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    baseline = {"run_seconds": seconds, "runs": args.runs, "workloads": {}}
    steady = True
    for workload in args.workload or names:
        runs = []
        for seed in range(1, args.runs + 1):
            run_benchmark(workload, seed, 0, seconds)
            metrics, env = load_result(workload, seed, 0)
            runs.append(metrics)
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={metrics[k]:.4g}" for k in bounds), flush=True)
        stats, workload_steady = summarize(workload, runs, bounds)
        steady = steady and workload_steady
        if workload in stored:
            steady = compare(workload, stats, stored[workload]["end_to_end"],
                             bounds, better) and steady
        if args.baseline:
            run_benchmark(workload, 0, 1, seconds)
            traced, env = load_result(workload, 0, 1)
            baseline["env"] = {k: v for k, v in env.items() if k != "seed"}
            baseline["workloads"][workload] = {
                "end_to_end": {k: v for k, v in stats.items() if k in bounds},
                "raw": {k: v for k, v in stats.items() if k not in bounds},
                "per_layer": traced,
            }
    if args.baseline:
        args.baseline.write_text(json.dumps(baseline, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
