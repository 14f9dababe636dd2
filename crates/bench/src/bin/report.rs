//! Generate the complete reproduction report (every figure, table,
//! ablation and the accuracy study) as markdown-ish text on stdout:
//!
//! `cargo run --release -p ookami-bench --bin report > REPORT.txt`
//!
//! With `--validate <file>...` it instead checks each report file and
//! exits nonzero on the first violation — the CI hook that keeps every
//! probe's output loadable by the same tooling. Files are dispatched on
//! their `schema` tag: `BENCH_*.json` (`ookami-bench-v1`) and the
//! `ookamicheck` analyzer report (`ookamicheck-v1`) are both accepted.
//!
//! With `--derive <file>` it prints the roofline / bottleneck table
//! `obs::derive` computes from the file's counter snapshots (per span and
//! in total) against the A64FX machine model at the probes' 4-thread team.

use ookami_bench::probe;
use ookami_core::obs::Json;

/// Team size `--derive` places the counters at: the probes' parallel
/// sections run 4 threads.
const DERIVE_THREADS: usize = 4;

type Obj = std::collections::BTreeMap<String, Json>;

fn obj<'a>(v: Option<&'a Json>, at: &str) -> Result<&'a Obj, String> {
    match v {
        Some(Json::Obj(m)) => Ok(m),
        _ => Err(format!("`{at}` must be an object")),
    }
}

fn arr<'a>(m: &'a Obj, key: &str) -> Result<&'a [Json], String> {
    match m.get(key) {
        Some(Json::Arr(a)) => Ok(a),
        _ => Err(format!("`{key}` must be an array")),
    }
}

fn non_empty_str(m: &Obj, key: &str, at: &str) -> Result<(), String> {
    match m.get(key) {
        Some(Json::Str(s)) if !s.is_empty() => Ok(()),
        _ => Err(format!("`{at}.{key}` must be a non-empty string")),
    }
}

fn non_neg_num(m: &Obj, key: &str, at: &str) -> Result<(), String> {
    match m.get(key) {
        Some(Json::Num(n)) if *n >= 0.0 => Ok(()),
        _ => Err(format!("`{at}.{key}` must be a non-negative number")),
    }
}

/// Check every entry of the array `key` of `top`: each must be an object
/// passing `entry`, which gets the entry and its `key[i]` label.
fn each(
    top: &Obj,
    key: &str,
    entry: impl Fn(&Obj, &str) -> Result<(), String>,
) -> Result<(), String> {
    for (i, e) in arr(top, key)?.iter().enumerate() {
        let at = format!("{key}[{i}]");
        entry(obj(Some(e), &at)?, &at)?;
    }
    Ok(())
}

fn failures_field(top: &Obj) -> Result<(), String> {
    match top.get("failures") {
        Some(Json::Num(_)) => Ok(()),
        _ => Err("`failures` must be a number".to_string()),
    }
}

/// Shape-check an `ookamicheck-v1` document (written by the
/// `ookamicheck` bin): per-program diagnostic counts plus the race
/// summary, everything CI consumes from the uploaded artifact.
fn validate_ookamicheck_json(top: &Obj) -> Result<(), String> {
    each(top, "programs", |m, at| {
        non_empty_str(m, "program", at)?;
        for key in ["instructions", "errors", "warnings"] {
            non_neg_num(m, key, at)?;
        }
        arr(m, "diagnostics").map(|_| ())
    })?;
    let race = obj(top.get("race"), "race")?;
    for key in ["events", "races"] {
        if !matches!(race.get(key), Some(Json::Num(_))) {
            return Err(format!("`race.{key}` must be a number"));
        }
    }
    failures_field(top)
}

/// Shape-check an `ookamicheck-tv-v1` document (written by `ookamicheck
/// --tv`): per-trace translation-validation outcomes plus the mutation
/// self-test tallies.
fn validate_ookamicheck_tv_json(top: &Obj) -> Result<(), String> {
    each(top, "traces", |m, at| {
        non_empty_str(m, "trace", at)?;
        non_neg_num(m, "errors", at)?;
        match m.get("counters_checked") {
            Some(Json::Bool(_)) => Ok(()),
            _ => Err(format!("`{at}.counters_checked` must be a bool")),
        }
    })?;
    each(top, "challenge", |m, at| {
        non_empty_str(m, "base", at)?;
        non_neg_num(m, "rejected", at)?;
        non_neg_num(m, "divergent", at)
    })?;
    failures_field(top)
}

/// Dispatch on the document's `schema` tag so one `--validate` invocation
/// covers every report kind the repo writes.
fn validate_any(text: &str) -> Result<(), String> {
    let doc = Json::parse(text)?;
    let top = obj(Some(&doc), "top level")?;
    match top.get("schema") {
        Some(Json::Str(s)) if s == "ookamicheck-v1" => validate_ookamicheck_json(top),
        Some(Json::Str(s)) if s == "ookamicheck-tv-v1" => validate_ookamicheck_tv_json(top),
        Some(Json::Str(_)) => ookami_core::obs::validate_bench_json(text),
        other => Err(format!("`schema` must be a string, got {other:?}")),
    }
}

const CLI: probe::Cli = probe::Cli {
    help: "report — regenerate the full reproduction report, or inspect BENCH files\n\
           \n\
           usage:\n\
           \x20 report                       full report on stdout\n\
           \x20 report --validate <file>...  schema-check report files\n\
           \x20                              (BENCH_*.json, OOKAMICHECK*.json)\n\
           \x20 report --derive <file>       roofline/bottleneck table from a\n\
           \x20                              BENCH_*.json with counters (4 threads,\n\
           \x20                              matching the probes)\n\
           \x20 report --help                this text",
    switches: &["--validate", "--derive"],
    options: &[],
    max_positional: usize::MAX,
};

fn run_derive(file: &str) -> ! {
    let text = std::fs::read_to_string(file).unwrap_or_else(|e| {
        eprintln!("FAIL {file}: {e}");
        std::process::exit(2);
    });
    if let Err(e) = ookami_core::obs::validate_bench_json(&text) {
        eprintln!("FAIL {file}: not a valid ookami-bench-v1 document: {e}");
        std::process::exit(2);
    }
    let doc = Json::parse(&text).expect("validated JSON reparses");
    let m = ookami_uarch::machines::a64fx();
    match ookami_core::obs::derive::derive_bench_doc(&doc, m, DERIVE_THREADS) {
        Ok(rows) if rows.is_empty() => {
            println!(
                "{file}: no counter snapshots to derive from (was the probe run \
                 with the obs switch off?)"
            );
            std::process::exit(0);
        }
        Ok(rows) => {
            print!(
                "{}",
                ookami_core::obs::derive::render_table(&rows, m, DERIVE_THREADS)
            );
            std::process::exit(0);
        }
        Err(e) => {
            eprintln!("FAIL {file}: {e}");
            std::process::exit(2);
        }
    }
}

fn main() {
    let args = CLI.from_env();
    let files = &args.positional;
    match (args.has("--derive"), args.has("--validate")) {
        (true, true) => probe::usage_error("--derive and --validate are exclusive"),
        (true, false) => match files.as_slice() {
            [file] => run_derive(file),
            _ => probe::usage_error("--derive takes one BENCH_*.json file"),
        },
        (false, true) if files.is_empty() => {
            probe::usage_error("--validate needs at least one file");
        }
        (false, true) => {
            for f in files {
                let checked = std::fs::read_to_string(f)
                    .map_err(|e| e.to_string())
                    .and_then(|text| validate_any(&text));
                if let Err(e) = checked {
                    eprintln!("FAIL {f}: {e}");
                    std::process::exit(1);
                }
                println!("OK {f}");
            }
        }
        (false, false) if !files.is_empty() => {
            probe::usage_error(&format!("unexpected argument `{}`", files[0]));
        }
        (false, false) => print_full_report(),
    }
}

fn print_full_report() {
    println!("# ookami — full reproduction report\n");
    println!("Regenerated from the models and emulator; see EXPERIMENTS.md for the");
    println!("paper-vs-produced ledger and DESIGN.md for the substitutions.\n");

    println!("## Tables\n");
    print!("{}", ookami_bench::run_tables("all"));

    println!("## Figures\n");
    print!("{}", ookami_bench::run_figures("all", false));

    println!("## Ablations\n");
    print!(
        "{}",
        ookami_bench::ablations::render_all(ookami_uarch::machines::a64fx())
    );

    println!("\n## Accuracy study\n");
    print!("{}", ookami_bench::accuracy::render());
}
