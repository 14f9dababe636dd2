//! Regenerate the paper's figures: `figures <id>|all [--csv]`.
//!
//! Also writes `BENCH_figures.json` (shared `ookami-bench-v1` schema):
//! the row count per regenerated figure. The obs switch stays off, so the
//! regeneration runs uninstrumented and the report's counters and spans
//! are empty.

use ookami_bench::probe;

const CLI: probe::Cli = probe::Cli {
    help: "figures — regenerate the paper's figures as text tables or CSV rows\n\
           \n\
           usage: figures [fig1|fig2|sec4|fig3|…|fig9|all] [--csv]   (default all)\n\
           \n\
           writes BENCH_figures.json",
    switches: &["--csv"],
    options: &[],
    max_positional: 1,
};

fn main() {
    let args = CLI.from_env();
    let csv = args.has("--csv");
    let which = args.positional.first().map_or("all", String::as_str);
    let mut run = probe::Run::start("figures", which, false, "BENCH_figures.json");
    print!("{}", ookami_bench::run_figures(which, csv));

    let names: Vec<&str> = if which == "all" {
        ookami_bench::ALL_FIGURES.to_vec()
    } else {
        vec![which]
    };
    for n in names {
        if let Some((_, rows)) = ookami_bench::figure(n) {
            run.report.metric(&format!("{n}_rows"), rows.len() as f64);
        }
    }
    run.report.flag("csv", csv);
    if !run.finish() {
        std::process::exit(1);
    }
}
