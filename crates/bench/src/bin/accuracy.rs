//! Print the math-library accuracy study (the paper's deferred topic) and
//! write it as `BENCH_accuracy.json` in the shared `ookami-bench-v1`
//! schema (max/mean ulp per implementation, plus the obs counters the
//! emulated sweeps produced: the probe switches the obs layer on).

use ookami_bench::probe;

const CLI: probe::Cli = probe::Cli {
    help: "accuracy — ulp accuracy study of every exp/log/sin implementation\n\
           \n\
           usage: accuracy\n\
           \n\
           writes BENCH_accuracy.json",
    switches: &[],
    options: &[],
    max_positional: 0,
};

fn main() {
    CLI.from_env();
    let mut run = probe::Run::start("accuracy", "full", true, "BENCH_accuracy.json");
    let rows = ookami_bench::accuracy::accuracy_study();
    print!("{}", ookami_bench::accuracy::render_rows(&rows));

    for r in &rows {
        let key = format!("{} {}", r.function, r.implementation);
        run.report
            .metric(&format!("max_ulp {key}"), r.acc.max_ulp as f64)
            .metric(&format!("mean_ulp {key}"), r.acc.mean_ulp);
    }
    run.report.metric("implementations", rows.len() as f64);
    if !run.finish() {
        std::process::exit(1);
    }
}
