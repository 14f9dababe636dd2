//! Trace-replay probe: record-once/replay-many vs the per-op interpreter,
//! plus the AOT trace compiler (`ookami_sve::compile`) vs the replayer.
//!
//! Runs the exp accuracy sweep (the hot caller the trace engine was built
//! for) through all three executors, verifies the results are
//! **bit-identical**, the obs counters **exactly equal**, and that the
//! trace lowers to the **same instruction stream** the interpreter records
//! (modulo register naming), then measures elements/second and writes
//! `BENCH_sve.json` plus a per-variant pass-pipeline summary to
//! `target/COMPILE_REPORT.json`. Run with:
//!
//! ```text
//! cargo run -p ookami-bench --bin svereplay --release [--smoke]
//! ```
//!
//! `--smoke` (CI mode) shrinks the sweep and skips the speedup bars —
//! shared runners are too noisy for hard perf assertions — but still
//! enforces every identity check. The full run fails (exit 1) on any bar
//! of [`ookami_bench::probe::LIMITS`] it publishes: `speedup` (replay vs
//! the interpreter) and `compiled_speedup` (compiled vs replay). The
//! probe switches the obs layer on at start, the configuration the
//! committed baseline records.
//!
//! The probe also sweeps both parallel executors over 1/2/4/8 threads and
//! publishes `replay_par_speedup` / `compiled_par_speedup` (4 threads vs
//! the engine's own serial path) together with `host_cores`: the par bars
//! apply only where the host has the cores; on smaller boxes the pool
//! runs regions inline and the bars are skipped rather than faked.

use ookami_bench::probe::{self, best_of, identity_delta, IDENTITY_COUNTERS};
use ookami_core::{auto_threads, obs};
use ookami_sve::SveCtx;
use ookami_uarch::{Instr, OpClass, Reg, Width};
use ookami_vecmath::exp::{
    exp_fexpa, exp_poly13, exp_slice_interp, exp_trace, ExpVariant, Poly13Style, PolyForm,
};
use ookami_vecmath::ulp::sample_range;
use std::collections::HashMap;

const CLI: probe::Cli = probe::Cli {
    help: "svereplay — exp sweep through interpreter, replayer and compiled engine\n\
           \n\
           usage: svereplay [--smoke]\n\
           \n\
           --smoke  CI-sized sweep; identity checks only, no speedup bars\n\
           \n\
           writes BENCH_sve.json and target/COMPILE_REPORT.json",
    switches: &["--smoke"],
    options: &[],
    max_positional: 0,
};

/// Thread counts swept by the parallel throughput section. 4 is the
/// headline (one A64FX CMG's worth of meaningful scaling on commodity
/// hosts); 8 probes oversubscription.
const SWEEP_THREADS: [usize; 4] = [1, 2, 4, 8];
/// Index of the 4-thread headline in [`SWEEP_THREADS`].
const HEADLINE: usize = 2;

const VARIANTS: [ExpVariant; 5] = [
    ExpVariant::FexpaHorner,
    ExpVariant::FexpaEstrin,
    ExpVariant::FexpaEstrinCorrected,
    ExpVariant::Poly13,
    ExpVariant::Poly13Sleef,
];

/// The same dispatch `ookami_vecmath::exp` uses internally, rebuilt from
/// the public kernels so the probe can drive the interpreter's recorder.
fn exp_kernel(
    ctx: &mut SveCtx,
    pg: &ookami_sve::Pred,
    x: &ookami_sve::VVal,
    v: ExpVariant,
) -> ookami_sve::VVal {
    match v {
        ExpVariant::FexpaHorner => exp_fexpa(ctx, pg, x, PolyForm::Horner, false),
        ExpVariant::FexpaEstrin => exp_fexpa(ctx, pg, x, PolyForm::Estrin, false),
        ExpVariant::FexpaEstrinCorrected => exp_fexpa(ctx, pg, x, PolyForm::Estrin, true),
        ExpVariant::Poly13 => exp_poly13(ctx, pg, x, Poly13Style::Plain),
        ExpVariant::Poly13Sleef => exp_poly13(ctx, pg, x, Poly13Style::Sleef),
    }
}

/// Canonical register renaming (first appearance order) so interpreter and
/// trace streams compare structurally.
type CanonInstr = (OpClass, Width, Option<u32>, Vec<u32>, Option<u32>);

fn canon(instrs: &[Instr]) -> Vec<CanonInstr> {
    let mut names: HashMap<Reg, u32> = HashMap::new();
    let rename = |r: Reg, names: &mut HashMap<Reg, u32>| -> u32 {
        let next = names.len() as u32;
        *names.entry(r).or_insert(next)
    };
    instrs
        .iter()
        .map(|i| {
            let srcs = i.srcs.iter().map(|&r| rename(r, &mut names)).collect();
            let dst = i.dst.map(|r| rename(r, &mut names));
            (i.op, i.width, dst, srcs, i.uops_hint)
        })
        .collect()
}

fn main() {
    let args = CLI.from_env();
    let smoke = args.smoke();
    let mut run = probe::Run::start("svereplay", args.mode(), true, "BENCH_sve.json");
    let vl = 8usize;
    let n = if smoke { 4_001 } else { 40_001 };
    let reps = if smoke { 2 } else { 5 };
    let xs = sample_range(-700.0, 700.0, n);
    let headline = ExpVariant::FexpaEstrinCorrected;

    // --- correctness gates: every variant, all three executors, same
    // bits, same counters ---
    let mut bit_identical = true;
    let mut instrs_identical = true;
    let mut counters_identical = true;
    let mut compile_reports = Vec::new();
    for v in VARIANTS {
        let want = exp_slice_interp(vl, &xs, v);
        let t = exp_trace(vl, v);
        let ct = t.compile();
        let same_as = |got: &[f64], what: &str| {
            let same = want.len() == got.len()
                && want
                    .iter()
                    .zip(got)
                    .all(|(a, b)| a.to_bits() == b.to_bits());
            if !same {
                eprintln!("FAIL: {v:?} {what} is not bit-identical to the interpreter");
            }
            same
        };
        bit_identical &= same_as(&t.replay_map(&xs), "replay");
        bit_identical &= same_as(&t.replay_par_map(4, &xs), "parallel replay");
        bit_identical &= same_as(&ct.map(&xs), "compiled execution");
        bit_identical &= same_as(&ct.par_map(4, &xs), "parallel compiled execution");
        if !ct.is_native() {
            eprintln!("FAIL: {v:?} was rejected by the native-compilation gate");
            bit_identical = false;
        }
        compile_reports.push((format!("{v:?}"), ct.report()));

        // Counter identity across the three executors: the kernel's
        // retired-op totals must not depend on the execution strategy.
        let (ci, _) = identity_delta(|| {
            std::hint::black_box(exp_slice_interp(vl, &xs, v));
        });
        let (cr, br) = identity_delta(|| {
            std::hint::black_box(t.replay_map(&xs));
        });
        let (cc, bc) = identity_delta(|| {
            std::hint::black_box(ct.map(&xs));
        });
        for (k, c) in IDENTITY_COUNTERS.iter().enumerate() {
            if !(ci[k] == cr[k] && cr[k] == cc[k]) {
                counters_identical = false;
                eprintln!(
                    "FAIL: {v:?} counter {}: interp {} / replay {} / compiled {}",
                    c.name(),
                    ci[k],
                    cr[k],
                    cc[k]
                );
            }
        }
        if br != bc {
            counters_identical = false;
            eprintln!("FAIL: {v:?} byte counters: replay {br:?} vs compiled {bc:?}");
        }

        let mut ctx = SveCtx::new(vl);
        let pg = ctx.ptrue();
        let x = ctx.input_f64(&vec![0.5; vl]);
        ctx.start_recording();
        let _ = exp_kernel(&mut ctx, &pg, &x, v);
        let want_stream = canon(&ctx.take_recording());
        let got_stream = canon(&t.to_instrs());
        if want_stream != got_stream {
            instrs_identical = false;
            eprintln!("FAIL: {v:?} trace lowers to a different instruction stream");
        }
    }

    // --- throughput: headline variant ---
    let interp_s = best_of(reps, || {
        std::hint::black_box(exp_slice_interp(vl, &xs, headline));
    });
    let t = exp_trace(vl, headline);
    let replay_s = best_of(reps * 4, || {
        std::hint::black_box(t.replay_map(&xs));
    });
    let record_s = best_of(reps, || {
        std::hint::black_box(exp_trace(vl, headline));
    });
    let ct = t.compile();
    let compiled_s = best_of(reps * 4, || {
        std::hint::black_box(ct.map(&xs));
    });
    // Thread-scaling sweep: best-of seconds per `SWEEP_THREADS` entry.
    let replay_sweep = SWEEP_THREADS.map(|th| {
        best_of(reps * 4, || {
            std::hint::black_box(t.replay_par_map(th, &xs));
        })
    });
    let compiled_sweep = SWEEP_THREADS.map(|th| {
        best_of(reps * 4, || {
            std::hint::black_box(ct.par_map(th, &xs));
        })
    });
    let par_s = replay_sweep[HEADLINE];
    let compiled_par_s = compiled_sweep[HEADLINE];
    // `Trace::compile` clones the trace, so every call re-runs the full
    // pass pipeline + kernel emission: the one-time cost a caller pays
    // before amortizing it over replays.
    let compile_s = best_of(reps, || {
        std::hint::black_box(t.compile());
    });

    let interp_eps = n as f64 / interp_s;
    let replay_eps = n as f64 / replay_s;
    let par_eps = n as f64 / par_s;
    let compiled_eps = n as f64 / compiled_s;
    let compiled_par_eps = n as f64 / compiled_par_s;
    let speedup = replay_eps / interp_eps;
    let compiled_speedup = compiled_eps / replay_eps;
    // Parallel scaling vs each engine's own serial path at the headline
    // thread count (4). On a host with < 4 cores the pool clamps worker
    // count and these ratios hover near 1.0 — which is why their bars key
    // off `host_cores`.
    let host_cores = auto_threads();
    let replay_par_speedup = replay_s / par_s;
    let compiled_par_speedup = compiled_s / compiled_par_s;

    println!("svereplay: exp sweep, {n} elements, vl={vl}, {headline:?}");
    println!("  interpreter : {interp_eps:>12.0} elems/s");
    println!(
        "  trace replay: {:>12.0} elems/s  ({speedup:.1}x, record cost {:.1} µs)",
        replay_eps,
        record_s * 1e6
    );
    println!("  replay par4 : {par_eps:>12.0} elems/s  ({replay_par_speedup:.2}x serial replay)");
    println!(
        "  compiled    : {:>12.0} elems/s  ({compiled_speedup:.1}x replay, compile cost {:.1} µs)",
        compiled_eps,
        compile_s * 1e6
    );
    println!(
        "  compiled par4: {compiled_par_eps:>11.0} elems/s  ({compiled_par_speedup:.2}x serial compiled)"
    );
    println!("  scaling ({host_cores} host core(s)):");
    let sweeps = [("replay", replay_sweep), ("compiled", compiled_sweep)];
    for (engine, sweep) in &sweeps {
        for (th, s) in SWEEP_THREADS.iter().zip(sweep) {
            println!("    {engine:<8} x{th}: {:>12.0} elems/s", n as f64 / s);
        }
    }
    println!(
        "  bit-identical: {bit_identical}   counters identical: {counters_identical}   \
         instruction streams identical: {instrs_identical}"
    );

    run.report
        .metric("vl", vl as f64)
        .metric("elements", n as f64)
        .metric("interp_elems_per_sec", interp_eps)
        .metric("replay_elems_per_sec", replay_eps)
        .metric("compiled_elems_per_sec", compiled_eps)
        .metric("record_cost_us", record_s * 1e6)
        .metric("compile_cost_us", compile_s * 1e6)
        .metric("speedup", speedup)
        .metric("compiled_speedup", compiled_speedup)
        .metric("host_cores", host_cores as f64)
        .metric("replay_par_speedup", replay_par_speedup)
        .metric("compiled_par_speedup", compiled_par_speedup)
        .flag("variant", format!("{headline:?}"))
        .flag("bit_identical", bit_identical)
        .flag("counters_identical", counters_identical)
        .flag("instr_streams_identical", instrs_identical);
    // Every sweep point: par4 is the headline, the rest chart the curve.
    for (engine, sweep) in &sweeps {
        for (th, s) in SWEEP_THREADS.iter().zip(sweep) {
            run.report
                .metric(&format!("{engine}_par{th}_elems_per_sec"), n as f64 / s);
        }
    }
    let limits_hold = run.finish();

    // Per-variant pass-pipeline summary (uploaded as a CI artifact).
    let entries: Vec<String> = compile_reports
        .iter()
        .map(|(name, r)| {
            format!(
                "{{\"variant\": \"{name}\", \"native\": {}, \"body_ops\": {}, \
                 \"opt_ops\": {}, \"kernels\": {}, \"fused\": {}, \"folded\": {}, \
                 \"pred_simplified\": {}, \"dead_removed\": {}}}",
                r.native,
                r.body_ops,
                r.opt_ops,
                r.kernels,
                r.fused,
                r.folded,
                r.pred_simplified,
                r.dead_removed
            )
        })
        .collect();
    let doc = format!(
        "{{\n\"schema\": \"compile-report-v1\",\n\"traces\": [\n{}\n]\n}}\n",
        entries.join(",\n")
    );
    obs::Json::parse(&doc).expect("compile report must be valid JSON");
    let _ = std::fs::create_dir_all("target");
    std::fs::write("target/COMPILE_REPORT.json", &doc).expect("write compile report");
    println!("wrote target/COMPILE_REPORT.json");

    if !bit_identical || !instrs_identical || !counters_identical || !limits_hold {
        std::process::exit(1);
    }
    if smoke {
        println!(
            "OK (smoke): identity checks passed; replay {speedup:.1}x, \
             compiled {compiled_speedup:.1}x (not gated)"
        );
    } else {
        println!(
            "OK: identity checks and speedup bars hold; replay is {speedup:.1}x the \
             interpreter, compiled is {compiled_speedup:.1}x replay"
        );
    }
}
