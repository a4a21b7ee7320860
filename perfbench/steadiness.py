#!/usr/bin/env python3
"""Steadiness report: runs each workload once per seed and prints, for every
end-to-end metric, its median and quartiles over the runs and the spread
(third minus first quartile, over the median). A metric whose spread exceeds
its bound in BENCHMARK.json is flagged, `setup_s` included; one above a third of its bound is
marked as close. `failed_ratio` is derived from each run's `attempted` and
`failed` counts.

Run from the repository root:

    python3 perfbench/steadiness.py --runs 10
    python3 perfbench/steadiness.py --workloads serve_batch --runs 5 --first-seed 100

Every run goes through the command in BENCHMARK.json, so the first one builds
the benchmark. Exits 1 if any run fails or is incorrect, 2 if a spread
exceeds its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(command, workload, seed, seconds):
    argv = command + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", "0",
    ]
    start = time.monotonic()
    proc = subprocess.run(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    elapsed = time.monotonic() - start
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    return result, elapsed


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", default="BENCHMARK.json")
    parser.add_argument("--workloads", nargs="*", help="default: every workload")
    parser.add_argument("--runs", type=int, default=10, help="seeds per workload")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, help="default: run_seconds")
    args = parser.parse_args()

    with open(args.config) as f:
        config = json.load(f)
    names = args.workloads or [w["name"] for w in config["workloads"]]
    seconds = args.seconds or config["run_seconds"]
    metrics = config["end_to_end"]
    bad_run = False
    too_wide = False
    for workload in names:
        values = {m["name"]: [] for m in metrics}
        failed_ratio = []
        times = []
        for i in range(args.runs):
            seed = args.first_seed + i
            result, elapsed = run_once(config["command"], workload, seed, seconds)
            times.append(elapsed)
            if not result["correct"] or result["failed"]:
                bad_run = True
            failed_ratio.append(result["failed"] / result["attempted"])
            for m in metrics:
                values[m["name"]].append(result["metrics"][m["name"]]["value"])
            print(f"  {workload} seed {seed}: {elapsed:.1f} s, "
                  f"{result['attempted']} attempted, {result['failed']} failed", flush=True)
        print(f"\n{workload}: {args.runs} runs of {seconds} s, "
              f"median run {statistics.median(times):.1f} s")
        print(f"  {'metric':<28} {'unit':<6} {'q1':>12} {'median':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6}")
        for m in metrics:
            v = values[m["name"]]
            q1, med, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0],) * 3
            spread = (q3 - q1) / med if med else 0.0
            bound = m["bound"]
            flag = ""
            if spread > bound:
                flag = "  EXCEEDS BOUND"
                too_wide = True
            elif spread > bound / 3:
                flag = "  above a third of the bound"
            print(f"  {m['name']:<28} {m['unit']:<6} {q1:>12.5g} {med:>12.5g} {q3:>12.5g} "
                  f"{spread:>8.4f} {bound:>6.2f}{flag}")
        print(f"  {'failed_ratio':<28} {'ratio':<6} max {max(failed_ratio):.4g}\n", flush=True)
    if bad_run:
        return 1
    return 2 if too_wide else 0


if __name__ == "__main__":
    sys.exit(main())
