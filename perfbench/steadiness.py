#!/usr/bin/env python3
"""Runs the benchmark on several seeds per workload and reports, for each
end-to-end metric, the spread between runs: the distance between the first
and third quartile (``statistics.quantiles(values, n=4)``) as a share of the
median, next to the metric's bound in BENCHMARK.json.

Run from the repository root:

    python3 perfbench/steadiness.py --seeds 10 [--workloads tune_fleet,...] [--out FILE]

With ``--out`` the per-run values and the spreads are written as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(command, workload, seed, seconds, trace):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    start = time.time()
    proc = subprocess.run(args, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=900)
    wall = time.time() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed} exited with {proc.returncode}")
    result = json.loads(lines[-1])
    return result, wall


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else float("inf"), med


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--out", default="")
    opts = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    if opts.workloads:
        workloads = opts.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    record = {"seeds": opts.seeds, "run_seconds": bench["run_seconds"], "workloads": {}}
    for workload in workloads:
        runs = []
        for k in range(opts.seeds):
            seed = opts.first_seed + k
            result, wall = run_once(bench["command"], workload, seed, bench["run_seconds"], 0)
            if not result["correct"]:
                raise SystemExit(f"{workload} seed {seed}: incorrect output")
            values = {name: m["value"] for name, m in result["metrics"].items()}
            runs.append({"seed": seed, "wall_s": round(wall, 1), "metrics": values})
            print(f"{workload} seed {seed}: {wall:.1f} s", flush=True)
        summary = {}
        print(f"{workload}: spread (IQR / median) against bound")
        for name, bound in bounds.items():
            values = [r["metrics"][name] for r in runs]
            s, med = spread(values)
            ok = name == "setup_s" or s <= bound
            summary[name] = {"median": med, "spread": s, "bound": bound}
            print(f"  {name:<28} median {med:>14.4f}  spread {s:7.4f}  bound {bound:5.2f}"
                  f"  {'ok' if ok else 'OVER'}{'' if s <= bound / 3 else ' (above bound/3)'}")
        record["workloads"][workload] = {"runs": runs, "spread": summary}
    if opts.out:
        with open(opts.out, "w") as f:
            json.dump(record, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
