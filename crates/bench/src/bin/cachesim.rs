//! Cache-simulator probe: the sharded set-associative simulator
//! (`ookami_mem::ShardedCacheSim`) vs the serial `CacheSim` on
//! deterministic synthetic traces.
//!
//! Two gates:
//!
//! 1. **Identity** (always enforced, exit 1 on failure): the sharded
//!    simulator — serial dispatch and pool-parallel replay at several
//!    thread counts — must produce hit/miss/eviction counts *exactly*
//!    equal to the serial simulator, on both the A64FX and Skylake
//!    memory geometries. Sharding by set index is a bijection that
//!    preserves per-set LRU order, so any drift is a bug, not noise.
//! 2. **Parallel floor** (full mode, only where `host_cores` reaches the
//!    bar's minimum): `cachesim_par_speedup` in
//!    [`ookami_bench::probe::LIMITS`], pool-parallel replay at 4 threads
//!    vs the serial simulator on the same trace.
//!
//! Writes `BENCH_mem.json` (schema `ookami-bench-v1`) with the headline
//! A64FX numbers plus `host_cores`, so `benchdiff` applies the same
//! capability-gated floor to committed baselines, with the obs counters
//! the run produced (the probe switches the obs layer on). Run with:
//!
//! ```text
//! cargo run -p ookami-bench --bin cachesim --release [--smoke]
//! ```

use ookami_bench::probe::{self, best_of};
use ookami_core::auto_threads;
use ookami_mem::{AccessStats, CacheSim, ShardedCacheSim};
use ookami_uarch::{machines, MemSpec};

const CLI: probe::Cli = probe::Cli {
    help: "cachesim — sharded vs serial cache simulator: exact identity + parallel rate\n\
           \n\
           usage: cachesim [--smoke]\n\
           \n\
           --smoke  CI-sized trace; identity gate only, no parallel floor\n\
           \n\
           writes BENCH_mem.json",
    switches: &["--smoke"],
    options: &[],
    max_positional: 0,
};

/// Deterministic synthetic trace mixing the three behaviors the cache
/// model has to get right: streaming fills (compulsory misses + high reuse
/// within a line), power-of-two strides (conflict evictions), and an LCG
/// scatter (capacity pressure across many sets).
fn synth_trace(n: usize) -> Vec<(u64, usize)> {
    let mut out = Vec::with_capacity(n);
    let third = n / 3;
    // Streaming doubles over a working set larger than L2.
    for i in 0..third {
        out.push(((i as u64 * 8) % (1 << 24), 8));
    }
    // Strided doubles: 4 KiB stride folds onto few sets.
    for i in 0..third {
        out.push(((i as u64 * 4096) % (1 << 26), 8));
    }
    // LCG scatter with occasional multi-line vector touches.
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    while out.len() < n {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let addr = (x >> 17) % (1 << 25);
        let bytes = if x.trailing_zeros() >= 3 { 256 } else { 8 };
        out.push((addr, bytes));
    }
    out
}

fn serial_stats(spec: MemSpec, trace: &[(u64, usize)]) -> AccessStats {
    let mut c = CacheSim::new(spec);
    c.replay(trace.iter().copied())
}

/// Exact-equality check for one machine across dispatch strategies.
/// Returns false (and prints) on any mismatch.
fn identity_check(name: &str, spec: MemSpec, trace: &[(u64, usize)]) -> bool {
    let want = serial_stats(spec, trace);
    let mut ok = true;
    let mut sharded = ShardedCacheSim::new(spec, 8);
    let got = sharded.replay(trace);
    if got != want {
        eprintln!("FAIL: {name}: sharded serial replay {got:?} != serial {want:?}");
        ok = false;
    }
    for threads in [0usize, 1, 2, 4] {
        let mut s = ShardedCacheSim::new(spec, 8);
        let got = s.replay_par(threads, trace);
        if got != want {
            eprintln!(
                "FAIL: {name}: replay_par({threads}) over {} shard(s) {got:?} != serial {want:?}",
                s.n_shards()
            );
            ok = false;
        }
    }
    ok
}

fn main() {
    let args = CLI.from_env();
    let smoke = args.smoke();
    let mut run = probe::Run::start("cachesim", args.mode(), true, "BENCH_mem.json");
    let n = if smoke { 30_000 } else { 600_000 };
    let reps = if smoke { 2 } else { 5 };
    let trace = synth_trace(n);
    let host_cores = auto_threads();

    // --- identity gates on both machine geometries ---
    let a64 = machines::a64fx().mem;
    let skx = machines::skylake_6140().mem;
    let gate = identity_check("a64fx", a64, &trace) && identity_check("skylake_6140", skx, &trace);

    // --- throughput: serial vs pool-parallel sharded, A64FX geometry ---
    let stats = serial_stats(a64, &trace);
    let lines = stats.accesses;
    let mut serial = CacheSim::new(a64);
    serial.replay(trace.iter().copied()); // warm
    let serial_s = best_of(reps, || {
        std::hint::black_box(serial.replay(trace.iter().copied()));
    });
    let mut sharded = ShardedCacheSim::new(a64, 8);
    let shards = sharded.n_shards();
    sharded.replay_par(4, &trace); // warm
    let par_s = best_of(reps, || {
        std::hint::black_box(sharded.replay_par(4, &trace));
    });
    let serial_lps = lines as f64 / serial_s;
    let par_lps = lines as f64 / par_s;
    let par_speedup = serial_s / par_s;

    println!("cachesim: {n} accesses ({lines} line touches), a64fx geometry");
    println!(
        "  serial      : {serial_lps:>12.0} lines/s  (l1 {} l2 {} l3 {} mem {} evict {})",
        stats.l1_hits, stats.l2_hits, stats.l3_hits, stats.mem, stats.evictions
    );
    println!(
        "  sharded par4: {par_lps:>12.0} lines/s  ({par_speedup:.2}x, {shards} shard(s), \
         {host_cores} host core(s))"
    );
    println!("  identity (serial == sharded == par over both machines): {gate}");

    run.report
        .metric("accesses", n as f64)
        .metric("line_touches", lines as f64)
        .metric("l1_hits", stats.l1_hits as f64)
        .metric("l2_hits", stats.l2_hits as f64)
        .metric("l3_hits", stats.l3_hits as f64)
        .metric("mem_fills", stats.mem as f64)
        .metric("evictions", stats.evictions as f64)
        .metric("serial_lines_per_sec", serial_lps)
        .metric("par4_lines_per_sec", par_lps)
        .metric("cachesim_par_speedup", par_speedup)
        .metric("shards", shards as f64)
        .metric("host_cores", host_cores as f64)
        .flag("machine", "a64fx")
        .flag("gate", gate);
    if !run.finish() || !gate {
        std::process::exit(1);
    }
    if smoke {
        println!("OK (smoke): identity holds; par4 {par_speedup:.2}x (not gated)");
    } else {
        println!("OK: identity holds; par4 {par_speedup:.2}x");
    }
}
