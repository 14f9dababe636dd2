#!/usr/bin/env python3
"""Attribution self-test: slow one layer in the benchmark's own wrapper
(`--inject LAYER:MICROSECONDS`, a busy-wait inside that layer's span; the
program is untouched) and show that

* on the workload that calls the layer, the layer's per-layer metric and
  its predicted end-to-end metric both move past their bounds, and
* on every other workload, each end-to-end metric's median stays within
  its bound.

    python3 perfbench/attribution_selftest.py [--seeds 3] [--seconds S]

Run it from the repository root. Exits 1 if any of the above fails.
"""
import argparse
import json
import statistics
import subprocess
import sys

# The slowed layer, by how much per call, the workload that calls it, and
# the per-layer and end-to-end metrics that must move there.
LAYER = "mem.cachesim"
MICROS = 2000
WORKLOAD = "emu-irregular"
LAYER_METRIC = "mem.cachesim.ns_per_access"
METRIC = "op_p50_ms"


def run(spec, workload, seed, seconds, trace, inject):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(seconds), "--trace", str(trace)]
    if inject:
        cmd += ["--inject", inject]
    p = subprocess.run(cmd, capture_output=True, text=True, check=True)
    r = json.loads(p.stdout.strip().splitlines()[-1])
    assert r["correct"], f"{workload} seed {seed}: incorrect result"
    return {k: v["value"] for k, v in r["metrics"].items()}


def medians(spec, workload, seeds, seconds, trace, inject):
    rows = [run(spec, workload, s, seconds, trace, inject) for s in seeds]
    return {k: statistics.median(r[k] for r in rows) for k in rows[0]}


def worse(better, base, new):
    """Relative worsening of `new` against `base` (positive = worse)."""
    if base == 0:
        return 0.0
    d = (new - base) / base
    return -d if better == "higher" else d


def main():
    spec = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, default=3)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    a = ap.parse_args()
    inject = f"{LAYER}:{MICROS}"
    seeds = range(101, 101 + a.seeds)
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    ok = True

    base = medians(spec, WORKLOAD, seeds, a.seconds, 1, None)
    slow = medians(spec, WORKLOAD, seeds, a.seconds, 1, inject)
    key = LAYER_METRIC
    print(f"{WORKLOAD}: {key} {base[key]:.5g} -> {slow[key]:.5g}")
    # Per-layer metrics carry no bound; ask for more than the largest
    # end-to-end bound the benchmark allows.
    if not slow[key] > base[key] * (1 + max(m["bound"] for m in spec["end_to_end"])):
        print("  FAIL: the slowed layer's busy time did not move")
        ok = False

    for w in (x["name"] for x in spec["workloads"]):
        b = medians(spec, w, seeds, a.seconds, 0, None)
        s = medians(spec, w, seeds, a.seconds, 0, inject)
        for name, m in e2e.items():
            d = worse(m["better"], b[name], s[name])
            line = f"{w:<14} {name:<20} {b[name]:>12.5g} -> {s[name]:>12.5g}  worse by {d:+.3f} (bound {m['bound']})"
            if w == WORKLOAD and name == METRIC:
                verdict = "moves" if d > m["bound"] else "FAIL: did not move"
                ok &= d > m["bound"]
            elif w != WORKLOAD:
                verdict = "within bound" if d <= m["bound"] else "FAIL: outside bound"
                ok &= d <= m["bound"]
            else:
                verdict = ""
            print(f"{line}  {verdict}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
