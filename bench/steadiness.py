#!/usr/bin/env python3
"""Repeat the benchmark over several seeds and record how much each
end-to-end metric spreads.

Run from the repository root:

    python3 bench/steadiness.py --seeds 1-10 [--workloads ingest-wal,rebalance,sparse-1m]
                                [--out bench/steadiness.json]

For every workload and end-to-end metric in BENCHMARK.json it records the
median, the quartiles (statistics.quantiles(values, n=4)), the range, the
interquartile distance as a share of the median, and the metric's bound.
A spread at or above a third of the bound is flagged (setup_s is exempt
from the spread rule; only its median is compared between sets).
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def seed_list(spec):
    out = []
    for part in spec.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            out.extend(range(int(lo), int(hi) + 1))
        else:
            out.append(int(part))
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default="")
    ap.add_argument("--out", default="bench/steadiness.json")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = seed_list(args.seeds)

    report = {"seeds": seeds, "run_seconds": bench["run_seconds"], "workloads": {}}
    steady = True
    for name in names:
        values = {}
        for seed in seeds:
            cmd = bench["command"] + ["--workload", name, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            t0 = time.time()
            proc = subprocess.run(cmd, capture_output=True, text=True)
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            print(f"{name} seed {seed}: exit {proc.returncode}, {time.time() - t0:.1f}s, "
                  f"correct={res['correct']} attempted={res['attempted']} failed={res['failed']}", flush=True)
            if proc.returncode != 0 or not res["correct"]:
                print(proc.stdout, proc.stderr, file=sys.stderr)
                sys.exit(1)
            for metric, m in res["metrics"].items():
                values.setdefault(metric, []).append(m["value"])
        rows = {}
        for metric, vs in sorted(values.items()):
            med = statistics.median(vs)
            q1, _, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med
            bound = bounds[metric]
            ok = metric == "setup_s" or spread < bound / 3
            steady = steady and ok
            rows[metric] = {"median": med, "q1": q1, "q3": q3, "min": min(vs), "max": max(vs),
                            "iqr_share": round(spread, 4), "bound": bound, "values": vs}
            print(f"  {metric:18s} median {med:12.6g}  iqr/median {100 * spread:6.2f}%  "
                  f"bound {100 * bound:.0f}%{'' if ok else '  TOO NOISY'}", flush=True)
        report["workloads"][name] = rows
    with open(args.out, "w") as f:
        json.dump(report, f, indent=1)
        f.write("\n")
    sys.exit(0 if steady else 2)


if __name__ == "__main__":
    main()
