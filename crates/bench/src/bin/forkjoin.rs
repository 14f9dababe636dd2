//! Fork/barrier overhead probe: persistent pool vs spawn-per-region.
//!
//! Measures the cost of one empty parallel region at several team sizes
//! for (a) the persistent worker pool and (b) the seed runtime's
//! spawn-per-region strategy, prints the per-region costs and their
//! ratio, then least-squares-fits the pool samples into the
//! `BarrierCost` constants the OpenMP runtime model consumes
//! (`OmpModel::calibrated`). Exits 1 when the pool's advantage at an
//! 8-thread team (`ratio_at_8`) misses its bar in
//! [`ookami_bench::probe::LIMITS`]. Run with:
//!
//! ```text
//! cargo run -p ookami-bench --bin forkjoin --release
//! ```

use ookami_bench::probe;
use ookami_core::pool::{measure_pool_fork_join, measure_spawn_fork_join, Pool};
use ookami_mem::scaling::BarrierCost;

const CLI: probe::Cli = probe::Cli {
    help: "forkjoin — empty-region cost: persistent pool vs spawn-per-region\n\
           \n\
           usage: forkjoin\n\
           \n\
           writes BENCH_forkjoin.json; exit 1 when the pool's 8-thread advantage\n\
           misses its bar",
    switches: &[],
    options: &[],
    max_positional: 0,
};

/// Empty regions timed per pool point (spawn points cap at 500).
const REPS: u32 = 2_000;

fn main() {
    CLI.from_env();
    let teams = [2usize, 4, 8, 16];
    let mut run = probe::Run::start("forkjoin", "full", false, "BENCH_forkjoin.json");
    let report = &mut run.report;
    report.metric("reps", f64::from(REPS));

    println!("fork/join cost per empty region ({REPS} reps per point)");
    println!(
        "{:>7}  {:>12}  {:>12}  {:>8}",
        "team", "pool µs", "spawn µs", "ratio"
    );
    let mut samples: Vec<(usize, f64)> = Vec::new();
    let mut ratio_at_8 = 0.0;
    for team in teams {
        let pool = Pool::new(team - 1);
        let pool_s = measure_pool_fork_join(&pool, team, REPS);
        let spawn_s = measure_spawn_fork_join(team, REPS.min(500));
        let ratio = spawn_s / pool_s;
        if team == 8 {
            ratio_at_8 = ratio;
        }
        samples.push((team, pool_s));
        report.metric(&format!("pool_us_team{team}"), pool_s * 1e6);
        report.metric(&format!("spawn_us_team{team}"), spawn_s * 1e6);
        println!(
            "{:>7}  {:>12.3}  {:>12.3}  {:>7.1}x",
            team,
            pool_s * 1e6,
            spawn_s * 1e6,
            ratio
        );
    }

    let fit = BarrierCost::from_samples(&samples);
    println!();
    println!(
        "fitted BarrierCost: base_us = {:.3}, per_thread_us = {:.4}",
        fit.base_us, fit.per_thread_us
    );
    println!("(feed these into OmpModel::calibrated to replace the per-compiler guesses)");
    println!();
    let bar = probe::LIMITS
        .iter()
        .find(|l| l.metric == "ratio_at_8")
        .expect("ratio_at_8 has a bar");
    report
        .metric("barrier_base_us", fit.base_us)
        .metric("barrier_per_thread_us", fit.per_thread_us)
        .metric("ratio_at_8", ratio_at_8)
        .flag("gate", bar.holds(ratio_at_8));
    if !run.finish() {
        std::process::exit(1);
    }
    println!(
        "OK: pool fork/join is {ratio_at_8:.1}x cheaper than spawn at 8 threads (>= {}x)",
        bar.bound
    );
}
