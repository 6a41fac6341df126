#!/usr/bin/env python3
"""Measures the run-to-run spread of the workload benchmark.

Runs every workload --runs times, each with another seed, and prints for
each end-to-end metric its median, its quartiles (statistics.quantiles,
n=4) and the quartile distance as a share of the median. Before each run
it times a fixed SHA-256 loop, so a spread can be told apart from a
change in the host's speed. Run it from the repository root:

    python3 wlbench/spread.py --runs 10 --seconds 40 --out set.json
"""

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
import time


def host_probe():
    """Seconds one core takes to hash 64 MiB, the best of three."""
    buf = bytes(1 << 20)
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        for _ in range(64):
            hashlib.sha256(buf).digest()
        best = min(best, time.perf_counter() - t0)
    return best


def summarize(vs):
    q1, med, q3 = statistics.quantiles(vs, n=4)
    return {"median": med, "q1": q1, "q3": q3, "iqr_share": (q3 - q1) / med, "values": vs}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=40)
    ap.add_argument("--first-seed", type=int, default=101)
    ap.add_argument("--workloads", default="served-mix,azure-1m,azure-observed")
    ap.add_argument("--out", help="also write the summary here as JSON")
    args = ap.parse_args()

    summary = {
        "seeds": f"{args.first_seed}-{args.first_seed + args.runs - 1}",
        "seconds": args.seconds,
        "workloads": {},
    }
    for wl in args.workloads.split(","):
        values = {"host_probe_s": []}
        for i in range(args.runs):
            seed = args.first_seed + i
            values["host_probe_s"].append(host_probe())
            cmd = ["bash", "wlbench/run.sh", "--workload", wl, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", "0"]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                sys.exit(f"{wl} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
            res = json.loads(lines[-1])
            if not res["correct"] or res["failed"]:
                sys.exit(f"{wl} seed {seed}: incorrect result {res}")
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(wl, seed, {k: round(v[-1], 6) for k, v in values.items()},
                  file=sys.stderr, flush=True)
        summary["workloads"][wl] = {name: summarize(vs) for name, vs in sorted(values.items())}
        for name, s in sorted(summary["workloads"][wl].items()):
            print(f"{wl:15s} {name:15s} median {s['median']:12.6g}  iqr/median {s['iqr_share']:7.2%}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(summary, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
