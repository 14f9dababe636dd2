//! The shared probe harness. Every `ookami-bench` binary parses its
//! command line through [`Cli`]; every probe that writes a
//! `BENCH_*.json` runs its report through [`Run`]; and the perf bars the
//! probes enforce at exit and `benchdiff` enforces on committed files are
//! one table, [`LIMITS`].

use ookami_core::obs::{self, BenchReport, Counter, Json, Snapshot};
use std::collections::BTreeMap;
use std::time::Instant;

// ---------------------------------------------------------------------
// Command line
// ---------------------------------------------------------------------

/// A binary's command-line surface.
pub struct Cli {
    /// Printed on `--help` / `-h` (exit 0).
    pub help: &'static str,
    /// Flags without a value.
    pub switches: &'static [&'static str],
    /// Flags that take one value: `--flag <value>`.
    pub options: &'static [&'static str],
    /// The most positional (non-flag) arguments accepted.
    pub max_positional: usize,
}

/// A parsed command line.
#[derive(Debug, Default)]
pub struct Args {
    switches: Vec<&'static str>,
    options: Vec<(&'static str, String)>,
    pub positional: Vec<String>,
}

impl Args {
    pub fn has(&self, switch: &str) -> bool {
        self.switches.contains(&switch)
    }

    pub fn value(&self, option: &str) -> Option<&str> {
        self.options
            .iter()
            .rev()
            .find(|(k, _)| *k == option)
            .map(|(_, v)| v.as_str())
    }

    /// `--smoke` runs the CI-sized problem and skips the perf bars.
    pub fn smoke(&self) -> bool {
        self.has("--smoke")
    }

    /// The report's `mode` field: `"smoke"` or `"full"`.
    pub fn mode(&self) -> &'static str {
        if self.smoke() {
            "smoke"
        } else {
            "full"
        }
    }
}

/// Parsing stopped: print `message` and exit with `code` (0 for
/// `--help`, 2 for a usage error).
#[derive(Debug, PartialEq, Eq)]
pub struct Exit {
    pub code: i32,
    pub message: String,
}

impl Exit {
    fn usage(message: &str) -> Exit {
        Exit {
            code: 2,
            message: format!("error: {message} (try --help)"),
        }
    }

    /// Print the message (stdout for exit 0, stderr otherwise) and exit.
    pub fn exit(&self) -> ! {
        if self.code == 0 {
            println!("{}", self.message);
        } else {
            eprintln!("{}", self.message);
        }
        std::process::exit(self.code)
    }
}

impl Cli {
    pub fn parse(&self, args: impl IntoIterator<Item = String>) -> Result<Args, Exit> {
        let mut out = Args::default();
        let mut it = args.into_iter();
        while let Some(a) = it.next() {
            if a == "--help" || a == "-h" {
                return Err(Exit {
                    code: 0,
                    message: self.help.to_string(),
                });
            }
            if let Some(&s) = self.switches.iter().find(|&&s| s == a) {
                out.switches.push(s);
            } else if let Some(&o) = self.options.iter().find(|&&o| o == a) {
                match it.next() {
                    Some(v) if !v.starts_with("--") => out.options.push((o, v)),
                    _ => return Err(Exit::usage(&format!("{o} needs a value"))),
                }
            } else if a.starts_with('-') {
                return Err(Exit::usage(&format!("unknown argument `{a}`")));
            } else if out.positional.len() < self.max_positional {
                out.positional.push(a);
            } else {
                return Err(Exit::usage(&format!("unexpected argument `{a}`")));
            }
        }
        Ok(out)
    }

    /// Parse the process arguments; print and exit on `--help` or a
    /// usage error.
    pub fn from_env(&self) -> Args {
        self.parse(std::env::args().skip(1))
            .unwrap_or_else(|e| e.exit())
    }
}

/// A usage error found after parsing (a missing required flag, a wrong
/// positional count): exit 2.
pub fn usage_error(message: &str) -> ! {
    Exit::usage(message).exit()
}

// ---------------------------------------------------------------------
// Report lifecycle
// ---------------------------------------------------------------------

/// One probe run's `BENCH_*.json`: [`Run::start`] switches the obs layer,
/// resets it and takes the before-snapshot; [`Run::finish`] attaches the
/// counter delta and spans, writes, re-reads and validates the file, and
/// checks it against [`LIMITS`].
pub struct Run {
    pub report: BenchReport,
    before: Snapshot,
    path: String,
}

impl Run {
    pub fn start(probe: &str, mode: &str, obs_on: bool, path: &str) -> Run {
        obs::set_enabled(obs_on);
        obs::reset();
        Run {
            report: BenchReport::new(probe, mode),
            before: obs::snapshot(),
            path: path.to_string(),
        }
    }

    /// Write the report and judge it. Returns true when every limit that
    /// applies to the written document holds; each failure is printed.
    /// A report that cannot be written or does not validate on disk
    /// exits 2.
    pub fn finish(mut self) -> bool {
        self.report.attach_obs(&obs::snapshot().since(&self.before));
        let path = &self.path;
        let doc = self
            .report
            .write(path)
            .map_err(|e| e.to_string())
            .and_then(|()| std::fs::read_to_string(path).map_err(|e| e.to_string()))
            .and_then(|text| {
                obs::validate_bench_json(&text)?;
                Json::parse(&text)
            })
            .unwrap_or_else(|e| {
                eprintln!("error: {path}: {e}");
                std::process::exit(2)
            });
        // Status goes to stderr: stdout may be a CSV stream (`figures --csv`).
        eprintln!("wrote {path} (schema ookami-bench-v1, validated)");
        let check = check_limits(&doc);
        for v in &check.violations {
            eprintln!("FAIL: {v}");
        }
        for n in &check.notes {
            eprintln!("note: {n}");
        }
        check.violations.is_empty()
    }
}

/// Best wall time of `reps` calls of `f`, in seconds.
pub fn best_of<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

// ---------------------------------------------------------------------
// Counter identity
// ---------------------------------------------------------------------

/// The counters that must be exactly equal across interpreter, replayer
/// and compiled execution of one kernel.
pub const IDENTITY_COUNTERS: [Counter; 13] = [
    Counter::SveInstrs,
    Counter::SveLanesActive,
    Counter::PortFla,
    Counter::PortFlb,
    Counter::PortPr,
    Counter::PortExa,
    Counter::PortExb,
    Counter::PortEaga,
    Counter::PortEagb,
    Counter::PortBr,
    Counter::GatherElems,
    Counter::ScatterElems,
    Counter::FexpaIssues,
];

/// Byte counters: replayer and compiled engine agree on them, the
/// interpreter does not (its harness stages padded tail lanes).
pub const BYTE_COUNTERS: [Counter; 2] = [Counter::BytesLoaded, Counter::BytesStored];

/// This thread's counter delta over `f`, projected onto
/// [`IDENTITY_COUNTERS`] (first array) and [`BYTE_COUNTERS`] (second).
pub fn identity_delta(f: impl FnOnce()) -> ([u64; 13], [u64; 2]) {
    let before = obs::thread_snapshot();
    f();
    let d = obs::thread_snapshot().since(&before);
    (
        IDENTITY_COUNTERS.map(|c| d.get(c)),
        BYTE_COUNTERS.map(|c| d.get(c)),
    )
}

// ---------------------------------------------------------------------
// Perf limits
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// The metric may not fall below the bound.
    Floor,
    /// The metric may not rise above the bound.
    Ceiling,
}

/// One perf bar on a `BENCH_*.json` metric. Bars judge full-mode
/// documents only: smoke problems are sized until fixed costs dominate.
#[derive(Debug, Clone, Copy)]
pub struct Limit {
    pub metric: &'static str,
    pub bound: f64,
    pub direction: Direction,
    /// The bar applies only when the document's `host_cores` is at least
    /// this: on fewer cores the pool clamps its workers and a parallel
    /// speedup sits near 1.0 by construction.
    pub min_cores: f64,
}

impl Limit {
    const fn floor(metric: &'static str, bound: f64, min_cores: f64) -> Limit {
        Limit {
            metric,
            bound,
            direction: Direction::Floor,
            min_cores,
        }
    }

    pub fn holds(&self, value: f64) -> bool {
        match self.direction {
            Direction::Floor => value >= self.bound,
            Direction::Ceiling => value <= self.bound,
        }
    }
}

/// Every perf bar, enforced by the probe that publishes the metric (at
/// exit, full mode) and by `benchdiff` (on every full-mode current file).
pub const LIMITS: [Limit; 9] = [
    // svereplay: trace replay vs the per-op interpreter.
    Limit::floor("speedup", 5.0, 0.0),
    // svereplay: compiled closures vs the replayer.
    Limit::floor("compiled_speedup", 5.0, 0.0),
    // forkjoin: persistent pool vs spawn-per-region at an 8-thread team.
    Limit::floor("ratio_at_8", 5.0, 0.0),
    // spmv: SpMV replay rebinds three gather streams per block, so its
    // bar sits below the dense-loop `speedup` one.
    Limit::floor("spmv_replay_speedup", 1.2, 0.0),
    // spmv: STREAM's one-op body is the replayer's worst case (with obs
    // on the per-block accounting outweighs the fused op and the
    // interpreter wins, ~0.5x): a catastrophic-slowdown guard only.
    Limit::floor("stream_replay_speedup", 0.4, 0.0),
    // ookamiprof: the same compiled workload profiled vs bare; a blowout
    // means the observability layer became the workload.
    Limit {
        metric: "prof_overhead_ratio",
        bound: 5.0,
        direction: Direction::Ceiling,
        min_cores: 0.0,
    },
    // svereplay: 4-thread parallel executors vs their own serial paths.
    Limit::floor("replay_par_speedup", 3.0, 4.0),
    Limit::floor("compiled_par_speedup", 3.0, 4.0),
    // cachesim: pool-parallel sharded simulator vs the serial one.
    Limit::floor("cachesim_par_speedup", 2.0, 4.0),
];

/// The verdict of [`check_limits`] on one document.
#[derive(Debug, Default)]
pub struct LimitCheck {
    pub violations: Vec<String>,
    pub notes: Vec<String>,
}

/// The numeric entries of a `BENCH_*.json` document's `metrics` object.
pub fn num_metrics(doc: &Json) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    if let Some(Json::Obj(m)) = doc.get("metrics") {
        for (k, v) in m {
            if let Json::Num(n) = v {
                out.insert(k.clone(), *n);
            }
        }
    }
    out
}

/// Judge a `BENCH_*.json` document against [`LIMITS`]. Only `"full"`
/// mode documents are judged; a limit whose `min_cores` exceeds the
/// document's `host_cores` (0 when absent) is skipped with a note.
pub fn check_limits(doc: &Json) -> LimitCheck {
    let mut out = LimitCheck::default();
    if !matches!(doc.get("mode"), Some(Json::Str(m)) if m == "full") {
        return out;
    }
    let metrics = num_metrics(doc);
    let cores = metrics.get("host_cores").copied().unwrap_or(0.0);
    let mut skipped = None;
    for l in &LIMITS {
        let Some(&val) = metrics.get(l.metric) else {
            continue;
        };
        if cores < l.min_cores {
            skipped = Some(l.min_cores);
            continue;
        }
        if l.holds(val) {
            continue;
        }
        let (side, rel) = match l.direction {
            Direction::Floor => ("floor", "below"),
            Direction::Ceiling => ("ceiling", "above"),
        };
        let host = if l.min_cores > 0.0 {
            format!(" ({cores:.0}-core host)")
        } else {
            String::new()
        };
        out.violations.push(format!(
            "metric `{}`: {val:.3} {rel} {side} {:.1}{host}",
            l.metric, l.bound
        ));
    }
    if let Some(min) = skipped {
        out.notes.push(format!(
            "parallel floors skipped: host_cores {cores:.0} < {min:.0}"
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const CLI: Cli = Cli {
        help: "t — test probe",
        switches: &["--smoke"],
        options: &["--trace"],
        max_positional: 1,
    };

    fn parse(args: &[&str]) -> Result<Args, Exit> {
        CLI.parse(args.iter().map(ToString::to_string))
    }

    #[test]
    fn known_flags_parse() {
        let a = parse(&["--smoke", "--trace", "t.json", "fig1"]).expect("parses");
        assert!(a.smoke());
        assert_eq!(a.mode(), "smoke");
        assert_eq!(a.value("--trace"), Some("t.json"));
        assert_eq!(a.positional, ["fig1"]);
        let none = parse(&[]).expect("parses");
        assert_eq!(none.mode(), "full");
        assert_eq!(none.value("--trace"), None);
    }

    #[test]
    fn unknown_flag_exits_2() {
        let e = parse(&["--smok"]).expect_err("typo must not run full mode");
        assert_eq!(e.code, 2);
        assert!(e.message.contains("`--smok`"), "{}", e.message);
        assert_eq!(parse(&["-x"]).expect_err("unknown short flag").code, 2);
    }

    #[test]
    fn missing_value_exits_2() {
        let e = parse(&["--trace"]).expect_err("value required");
        assert_eq!(e.code, 2);
        assert!(e.message.contains("--trace needs a value"), "{}", e.message);
        // A following flag is not a value.
        assert_eq!(parse(&["--trace", "--smoke"]).expect_err("flag").code, 2);
    }

    #[test]
    fn too_many_positionals_exit_2() {
        assert_eq!(parse(&["a", "b"]).expect_err("one positional").code, 2);
    }

    #[test]
    fn help_exits_0_with_the_help_text() {
        for h in ["--help", "-h"] {
            let e = parse(&["--smok", h]).expect_err("help stops parsing");
            // An earlier unknown flag wins: it is reported first.
            assert_eq!(e.code, 2);
            let e = parse(&[h, "--smok"]).expect_err("help stops parsing");
            assert_eq!(
                e,
                Exit {
                    code: 0,
                    message: CLI.help.to_string()
                }
            );
        }
    }

    fn doc(mode: &str, metrics: &str) -> Json {
        Json::parse(&format!(
            "{{\"mode\": \"{mode}\", \"metrics\": {{{metrics}}}}}"
        ))
        .expect("test doc parses")
    }

    #[test]
    fn limits_judge_full_mode_only() {
        let slow = "\"speedup\": 1.0, \"prof_overhead_ratio\": 9.0";
        let v = check_limits(&doc("full", slow)).violations;
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v[0].contains("below floor"), "{v:?}");
        assert!(v[1].contains("above ceiling"), "{v:?}");
        assert!(check_limits(&doc("smoke", slow)).violations.is_empty());
    }

    #[test]
    fn parallel_limits_need_the_cores() {
        let par = "\"replay_par_speedup\": 1.0, \"cachesim_par_speedup\": 1.0";
        let few = check_limits(&doc("full", &format!("{par}, \"host_cores\": 2")));
        assert!(few.violations.is_empty(), "{:?}", few.violations);
        assert_eq!(few.notes.len(), 1, "{:?}", few.notes);
        let many = check_limits(&doc("full", &format!("{par}, \"host_cores\": 8")));
        assert_eq!(many.violations.len(), 2, "{:?}", many.violations);
        assert!(many.violations[0].contains("8-core host"));
    }

    #[test]
    fn limit_metrics_are_unique() {
        for (i, l) in LIMITS.iter().enumerate() {
            assert!(
                LIMITS[i + 1..].iter().all(|o| o.metric != l.metric),
                "{} listed twice",
                l.metric
            );
        }
    }
}
