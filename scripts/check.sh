#!/usr/bin/env bash
# Repo gate: formatting, lints, and the tier-1 verify from ROADMAP.md.
# Run locally before pushing; CI (.github/workflows/ci.yml) runs the same.
set -euo pipefail
cd "$(dirname "$0")/.."

export RUSTFLAGS="-D warnings"

echo "== cargo fmt --check"
cargo fmt --all --check

echo "== cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "== tier-1 verify: cargo build --release && cargo test -q"
cargo build --release
cargo test -q

echo "== per-crate test suites (timeline/schedule proptests live here)"
# The obs layer is switched at run time: tests that assert counters,
# spans or histograms switch it on themselves, and tests/obs_switch_off.rs
# pins the off state in a binary of its own.
cargo test -q --workspace

echo "== criterion benches compile"
cargo bench --no-run

# Snapshot the committed baselines BEFORE any probe smoke overwrites them:
# benchdiff compares what the branch committed against what it produces.
baseline_dir="$(mktemp -d)"
trap 'rm -rf "$baseline_dir"' EXIT
cp BENCH_*.json "$baseline_dir"/

echo "== trace-replay + compiled-trace identity smoke (svereplay --smoke)"
# The probe switches obs on, drives interpreter, replayer, and the compiled
# native path and asserts bit, instruction and exact counter identity
# across all three executors. It also rewrites target/COMPILE_REPORT.json
# (pass-pipeline stats per variant).
cargo run -p ookami-bench --bin svereplay --release -- --smoke

echo "== sharded cache-sim identity smoke (cachesim --smoke)"
# Serial CacheSim vs ShardedCacheSim (serial dispatch and pool-parallel at
# several thread counts) must agree exactly on both machine geometries.
cargo run -p ookami-bench --bin cachesim --release -- --smoke

echo "== irregular-memory family smoke (spmv --smoke)"
# CRS/SELL-C-σ/STREAM/stencil executors must stay bit-identical to their
# fused scalar references, and the ECM model must keep attributing the
# CRS family bandwidth_bound on the A64FX descriptor.
cargo run -p ookami-bench --bin spmv --release -- --smoke

echo "== counter-layer smoke (ookamistat --smoke) + trace + schema check"
cargo run -p ookami-bench --bin ookamistat --release -- --smoke --trace target/trace.json
cargo run -p ookami-bench --bin report --release -- --validate BENCH_obs.json

echo "== span-tree profiler smoke (ookamiprof --smoke)"
# The probe asserts histogram counts, span-tree counts, and the 13
# deterministic counters agree across interpreter/replayer/compiled, and
# exports the collapsed flamegraph stacks.
cargo run -p ookami-bench --bin ookamiprof --release -- --smoke
cargo run -p ookami-bench --bin report --release -- --validate BENCH_prof.json
test -s target/PROFILE.collapsed

echo "== live HTTP endpoint selfcheck (ookamiserve --selfcheck)"
# Binds an ephemeral port, runs a bounded workload, and validates every
# endpoint (/metrics /profile /trace /samples /bench/<name>) with the
# in-repo Prometheus/Json/collapsed-stack parsers over real HTTP.
cargo run -p ookami-bench --bin ookamiserve --release -- --selfcheck --smoke

echo "== bench-trajectory gate (benchdiff vs committed baselines)"
cargo run -p ookami-bench --bin benchdiff --release -- \
  --baseline "$baseline_dir" --current . --out target/BENCHDIFF.json
# Self-test: an injected synthetic regression must trip the gate (exit 1)
# and --explain must rank the counter deltas that caused it.
inject_out="$(mktemp)"
if cargo run -p ookami-bench --bin benchdiff --release -- \
  --baseline "$baseline_dir" --current . --out target/BENCHDIFF.inject.json \
  --inject-regression --explain >"$inject_out" 2>&1; then
  echo "benchdiff failed to flag an injected regression" >&2
  rm -f "$inject_out"
  exit 1
fi
if ! grep -q "top counter deltas vs baseline" "$inject_out"; then
  echo "benchdiff --explain produced no counter-delta ranking" >&2
  cat "$inject_out" >&2
  rm -f "$inject_out"
  exit 1
fi
rm -f "$inject_out"
# Leave the working tree as committed: the probe smokes overwrote the
# full-mode baselines with their small-problem numbers.
cp "$baseline_dir"/BENCH_*.json .

echo "== static verifier + mutation corpus + race gate (ookamicheck)"
# Also replays recorded timeline events from the shipped pool kernels
# through the race detector and requires zero races.
cargo run -p ookami-bench --bin ookamicheck --release -- \
  --mutations --json target/OOKAMICHECK.json
cargo run -p ookami-bench --bin report --release -- \
  --validate target/OOKAMICHECK.json

echo "== translation validator (ookamicheck --tv)"
# Proves every family trace pass-by-pass through the compiler pipeline
# (abstract-domain equivalence, bounds re-proof, counter recipes) and
# runs the 24-seed mutation self-test; the report schema is validated
# like every other artifact.
cargo run -p ookami-bench --bin ookamicheck --release -- \
  --tv --json target/OOKAMICHECK.tv.json
cargo run -p ookami-bench --bin report --release -- \
  --validate target/OOKAMICHECK.tv.json
# Self-test: a trail with a tampered stage and a bumped static counter
# must both be flagged (exit 1).
if cargo run -p ookami-bench --bin ookamicheck --release -- \
  --inject-tv >/dev/null 2>&1; then
  echo "ookamicheck failed to flag the injected TV defects" >&2
  exit 1
fi

echo "== race detector inject self-tests"
# Self-test: the injected unordered-write stream must be flagged (exit 1).
if cargo run -p ookami-bench --bin ookamicheck --release -- \
  --inject-race >/dev/null 2>&1; then
  echo "ookamicheck failed to flag the injected race" >&2
  exit 1
fi
# Same for the telemetry-actor stream: two unordered sampler-slot writes.
if cargo run -p ookami-bench --bin ookamicheck --release -- \
  --inject-sampler-race >/dev/null 2>&1; then
  echo "ookamicheck failed to flag the injected sampler race" >&2
  exit 1
fi

echo "== miri (strict provenance) over the pool runtime, if available"
if cargo miri --version >/dev/null 2>&1; then
  # SendPtr keeps provenance through the pool (no usize round-trips), so
  # the runtime and pool suites must pass under strict provenance.
  MIRIFLAGS="-Zmiri-strict-provenance" cargo miri test -p ookami-core runtime:: pool::
else
  echo "   SKIPPED: cargo miri not installed (rustup component add miri)"
fi

echo "== all checks passed"
