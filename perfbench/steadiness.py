#!/usr/bin/env python3
"""Checks that the benchmark is steady enough to judge a change.

Runs the benchmark once per seed on each workload (untraced), then for
every end-to-end metric prints the median and the interquartile spread
as a share of the median, next to the metric's bound from
BENCHMARK.json. Seeds go round-robin over the workloads, so a slow
phase of the host spreads over all of them instead of landing on
consecutive runs of one. Each workload is also run again on its first
seed, and the simulated-statistics digests of the two runs must be
identical.

Run from the repository root:

    python3 perfbench/steadiness.py --seeds 10 [--workloads fabric_bulk,...]
                                    [--seconds N] [--out results.json]

Exits nonzero when a spread (setup_s included) exceeds its bound, a
digest differs, or a run fails.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(cmd, workload, seed, seconds):
    args = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(args, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed} failed ({proc.returncode}):\n{proc.stderr}")
    result = json.loads(lines[-1])
    digest = next((l.split()[1] for l in lines if l.startswith("sim.digest")), None)
    return result, digest


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--seconds", type=int, default=0)
    ap.add_argument("--out", default="")
    opts = ap.parse_args()

    with open("BENCHMARK.json", encoding="utf-8") as f:
        bench = json.load(f)
    cmd = bench["command"]
    seconds = opts.seconds or bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]
    if opts.workloads:
        names = opts.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    runs = {w: [] for w in names}
    for seed in range(opts.first_seed, opts.first_seed + opts.seeds):
        for workload in names:
            runs[workload].append(run_once(cmd, workload, seed, seconds))

    ok = True
    report = {}
    for workload in names:
        _, again = run_once(cmd, workload, opts.first_seed, seconds)
        first = runs[workload][0][1]
        if again != first:
            print(f"{workload}: digest differs on a repeat of seed "
                  f"{opts.first_seed}: {first} vs {again}")
            ok = False
        report[workload] = {"digest": first}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r, _ in runs[workload]]
            s = spread(values) if len(values) >= 2 else 0.0
            steady = s <= bound
            ok &= steady
            report[workload][name] = {"values": values, "median": statistics.median(values),
                                      "spread": s, "bound": bound}
            print(f"{workload:14} {name:16} median={statistics.median(values):<14.6g} "
                  f"spread={s:.4f} bound={bound} {'ok' if steady else 'TOO WIDE'}"
                  f"{'' if s < bound / 3 else '  (above a third of the bound)'}")
        print(f"{workload:14} sim.digest       {first} (repeat {'equal' if again == first else 'DIFFERS'})")
    if opts.out:
        with open(opts.out, "w", encoding="utf-8") as f:
            json.dump(report, f, indent=1)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
