//! Profiler probe: drives the exp kernel through all three executors
//! (interpreter, trace replayer, compiled closures) under `obs::region`
//! spans with the timeline recording, then checks the live-telemetry
//! layer end to end:
//!
//! * region-latency **histogram counts** and **span-tree counts** must be
//!   bit-identical across the three executors (each ran exactly `reps`
//!   times, and the telemetry layer must not invent or lose a closing);
//! * the 13 deterministic identity counters must be exactly equal across
//!   executors (the svereplay invariant, re-checked through the profiler
//!   path);
//! * the **profiling overhead ratio** — the same compiled workload run
//!   bare vs under a region with the timeline recording — is published as
//!   `prof_overhead_ratio` and held under its ceiling in
//!   [`ookami_bench::probe::LIMITS`] (full mode, here and in `benchdiff`),
//!   so the observability layer can never silently become the workload.
//!
//! Writes `BENCH_prof.json` (p50/p99 region latencies per executor) and
//! the collapsed-stack flamegraph export to `target/PROFILE.collapsed`
//! (inferno / speedscope load it directly). The probe switches the obs
//! layer on at start. Run with:
//!
//! ```text
//! cargo run -p ookami-bench --bin ookamiprof --release [--smoke]
//! ```
//!
//! To watch the same span tree live over HTTP, use
//! `ookamiserve --addr <host:port>`.

use ookami_bench::probe::{self, identity_delta};
use ookami_core::telemetry::{self, spantree, HistKind};
use ookami_core::{obs, timeline};
use ookami_vecmath::exp::{exp_slice_interp, exp_trace, ExpVariant};
use ookami_vecmath::ulp::sample_range;
use std::time::Instant;

const CLI: probe::Cli = probe::Cli {
    help: "ookamiprof — span-tree profiler probe with live-telemetry identity gates\n\
           \n\
           usage: ookamiprof [--smoke]\n\
           \n\
           --smoke  CI-sized run (no perf bars apply in smoke mode)\n\
           \n\
           writes BENCH_prof.json and target/PROFILE.collapsed",
    switches: &["--smoke"],
    options: &[],
    max_positional: 0,
};

/// Flamegraph export path (inferno / speedscope load it directly).
const COLLAPSED_PATH: &str = "target/PROFILE.collapsed";

fn main() {
    let args = CLI.from_env();
    let smoke = args.smoke();
    let mut run = probe::Run::start("ookamiprof", args.mode(), true, "BENCH_prof.json");
    let vl = 8usize;
    let n = if smoke { 2_001 } else { 20_001 };
    let reps: u32 = if smoke { 4 } else { 8 };
    let variant = ExpVariant::FexpaEstrinCorrected;
    let xs = sample_range(-700.0, 700.0, n);
    let t = exp_trace(vl, variant);
    let ct = t.compile();

    let report = &mut run.report;
    report.metric("n", n as f64).metric("reps", f64::from(reps));
    report.metric("host_cores", ookami_core::auto_threads() as f64);

    // --- Profiling overhead: same compiled workload, bare vs profiled ---
    timeline::stop();
    std::hint::black_box(ct.map(&xs)); // warm up caches and allocators
    let orep = reps * 2;
    let t0 = Instant::now();
    for _ in 0..orep {
        std::hint::black_box(ct.map(&xs));
    }
    let bare_s = t0.elapsed().as_secs_f64();
    timeline::start(timeline::DEFAULT_CAPACITY);
    let t0 = Instant::now();
    for _ in 0..orep {
        let _span = obs::region("prof_overhead");
        std::hint::black_box(ct.map(&xs));
    }
    let prof_s = t0.elapsed().as_secs_f64();
    let overhead_ratio = prof_s / bare_s.max(1e-12);
    report
        .metric("bare_run_s", bare_s)
        .metric("prof_run_s", prof_s)
        .metric("prof_overhead_ratio", overhead_ratio);
    println!(
        "overhead: bare {bare_s:.6}s profiled {prof_s:.6}s ratio {overhead_ratio:.3} \
         ({orep} reps of n={n})"
    );

    // --- Three executors under nested regions, timeline recording ---
    let d_interp;
    let d_replay;
    let d_compiled;
    {
        let _root = obs::region("ookamiprof");
        d_interp = identity_delta(|| {
            for _ in 0..reps {
                let _span = obs::region("exec_interp");
                std::hint::black_box(exp_slice_interp(vl, &xs, variant));
            }
        })
        .0;
        d_replay = identity_delta(|| {
            for _ in 0..reps {
                let _span = obs::region("exec_replay");
                std::hint::black_box(t.replay_map(&xs));
            }
        })
        .0;
        d_compiled = identity_delta(|| {
            for _ in 0..reps {
                let _span = obs::region("exec_compiled");
                std::hint::black_box(ct.map(&xs));
            }
        })
        .0;
    }
    timeline::stop();

    // --- Telemetry identity gates ---
    let mut failures = 0u32;
    let execs = ["exec_interp", "exec_replay", "exec_compiled"];
    let short = ["interp", "replay", "compiled"];
    let hists = telemetry::snapshots();
    let tree = spantree::profile();
    let mut hist_ok = true;
    let mut tree_ok = true;
    for (exec, tag) in execs.iter().zip(short.iter()) {
        let path = format!("ookamiprof/{exec}");
        let Some(h) = hists.get(&(HistKind::RegionLatencyNs, path.clone())) else {
            eprintln!("FAIL: no region-latency histogram for {path}");
            hist_ok = false;
            continue;
        };
        if h.count() != u64::from(reps) {
            eprintln!("FAIL: histogram count for {path}: {} != {reps}", h.count());
            hist_ok = false;
        }
        report
            .metric(&format!("{tag}_p50_ns"), h.quantile(0.5) as f64)
            .metric(&format!("{tag}_p99_ns"), h.quantile(0.99) as f64);
        println!(
            "{path}: count {} p50 {}ns p90 {}ns p99 {}ns max {}ns",
            h.count(),
            h.quantile(0.5),
            h.quantile(0.9),
            h.quantile(0.99),
            h.max()
        );
        match tree.node(&path) {
            Some(node) if node.count == u64::from(reps) => {}
            other => {
                eprintln!(
                    "FAIL: span-tree count for {path}: {:?} != {reps}",
                    other.map(|n| n.count)
                );
                tree_ok = false;
            }
        }
    }
    let counters_ok = d_interp == d_replay && d_replay == d_compiled;
    if !counters_ok {
        eprintln!(
            "FAIL: identity counters differ across executors:\n  interp   {d_interp:?}\n  \
             replay   {d_replay:?}\n  compiled {d_compiled:?}"
        );
    }
    for (name, ok) in [
        ("hist_counts_identical", hist_ok),
        ("spantree_counts_identical", tree_ok),
        ("counters_identical", counters_ok),
    ] {
        report.flag(name, ok);
        if !ok {
            failures += 1;
        }
    }
    report.flag("gate", failures == 0);

    // --- Exports: rendered table + collapsed flamegraph stacks ---
    print!("{}", tree.render_table());
    let collapsed = tree.collapsed();
    spantree::parse_collapsed(&collapsed).expect("own collapsed export round-trips");
    let _ = std::fs::create_dir_all("target");
    std::fs::write(COLLAPSED_PATH, &collapsed).expect("write collapsed stacks");
    println!(
        "wrote {COLLAPSED_PATH} ({} stacks)",
        collapsed.lines().count()
    );

    telemetry::validate_prometheus(&telemetry::prometheus())
        .expect("own Prometheus exposition validates");
    let limits_hold = run.finish();
    if failures > 0 {
        eprintln!("ookamiprof: {failures} identity gate(s) failed");
    }
    if failures > 0 || !limits_hold {
        std::process::exit(1);
    }
}
