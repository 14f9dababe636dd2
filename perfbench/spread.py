#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each end-to-end metric's
median and quartile spread (IQR / median, as `statistics.quantiles(n=4)`
gives the quartiles) next to its bound from BENCHMARK.json.

    python3 perfbench/spread.py [--workloads a,b] [--seeds 10] [--seconds S]

Run it from the repository root. Seeds run from 1. Exits 1 if a run fails,
prints an incorrect result, or an end-to-end spread exceeds a third of its
bound.
"""
import argparse
import json
import statistics
import subprocess
import sys


def main():
    spec = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    a = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    for w in a.workloads.split(","):
        values = {}
        for seed in range(1, 1 + a.seeds):
            cmd = spec["command"] + ["--workload", w, "--seed", str(seed),
                                     "--seconds", str(a.seconds), "--trace", "0"]
            p = subprocess.run(cmd, capture_output=True, text=True)
            last = p.stdout.strip().splitlines()[-1] if p.stdout.strip() else "{}"
            r = json.loads(last)
            if p.returncode != 0 or not r.get("correct"):
                print(f"{w} seed {seed}: exit {p.returncode}, result {last}\n{p.stderr}")
                ok = False
                continue
            for k, v in r["metrics"].items():
                values.setdefault(k, []).append(v["value"])
        print(f"== {w} ({a.seeds} seeds, {a.seconds} s)")
        for k, vs in values.items():
            med = statistics.median(vs)
            q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (vs[0],) * 3
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds[k]
            flag = ""
            if spread > bound / 3:
                flag = "  <-- above bound/3"
                ok = False
            print(f"{k:<32} median {med:>14.6g}  spread {spread:7.4f}  bound {bound:>6}{flag}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
