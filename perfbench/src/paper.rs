//! `paper-repro`: each op regenerates every paper artifact in a fresh
//! process — every figure, every table, the ablations, the accuracy study
//! and the ECM table — and checks each byte for byte.
//!
//! A fresh process per op is what a user pays on every `figures` run: the
//! process-wide analysis memo (`ookami_uarch::memo`) starts empty, and the
//! program offers no way to empty it in place. The op's time runs from
//! spawn to exit. The child records its spans at the same call boundaries
//! and reports them, with the memo's hit and miss counts, on stdout.
//!
//! References are `tests/golden/*` where a golden exists and the
//! snapshots in this benchmark's `snapshots/` directory otherwise.

use crate::stats::Rng;
use crate::tracer::{layer, Inject, Tracer};
use crate::Workload;
use ookami_bench::accuracy::{accuracy_study, render_rows};
use ookami_core::measure::{to_csv, Measurement};
use ookami_core::obs::derive::render_ecm_table;
use ookami_sve::Trace;
use ookami_uarch::machines;
use ookami_vecmath::{exp::exp_trace, log, pow, recip, sin, sqrt, ExpVariant};
use std::io::Write;
use std::path::PathBuf;
use std::process::{Command, Stdio};

const GOLDEN_HPCC_FIG8: &str = include_str!("../../tests/golden/hpcc_fig8.txt");
const GOLDEN_HPCC_FIG9: &str = include_str!("../../tests/golden/hpcc_fig9.txt");
const GOLDEN_NPB_CSV: &str = include_str!("../../tests/golden/npb_figures.csv");
const GOLDEN_HPCC_CSV: &str = include_str!("../../tests/golden/hpcc_figures.csv");
const GOLDEN_ECM: &str = include_str!("../../tests/golden/ecm_table.txt");

/// Artifacts without a golden, snapshotted by `--update-snapshots`.
const SNAPSHOTS: [(&str, &str); 11] = [
    ("fig1", include_str!("../snapshots/fig1.txt")),
    ("fig2", include_str!("../snapshots/fig2.txt")),
    ("sec4", include_str!("../snapshots/sec4.txt")),
    ("fig3", include_str!("../snapshots/fig3.txt")),
    ("fig4", include_str!("../snapshots/fig4.txt")),
    ("fig5", include_str!("../snapshots/fig5.txt")),
    ("fig6", include_str!("../snapshots/fig6.txt")),
    ("fig7", include_str!("../snapshots/fig7.txt")),
    ("tables", include_str!("../snapshots/tables.txt")),
    ("ablations", include_str!("../snapshots/ablations.txt")),
    ("accuracy", include_str!("../snapshots/accuracy.txt")),
];

/// Every artifact one op produces, in the order it produces them.
const ARTIFACTS: usize = 16;

fn reference(name: &str) -> Option<&'static str> {
    match name {
        "fig8" => Some(GOLDEN_HPCC_FIG8),
        "fig9" => Some(GOLDEN_HPCC_FIG9),
        "npb_figures.csv" => Some(GOLDEN_NPB_CSV),
        "hpcc_figures.csv" => Some(GOLDEN_HPCC_CSV),
        "ecm" => Some(GOLDEN_ECM),
        _ => SNAPSHOTS.iter().find(|(n, _)| *n == name).map(|(_, s)| *s),
    }
}

/// The layer each figure's regenerator belongs to.
fn figure_layer(fig: &str) -> &'static str {
    match fig {
        "fig1" | "fig2" | "sec4" => "loops.figures",
        "fig3" | "fig4" | "fig5" | "fig6" => "npb.figures",
        "fig7" => "lulesh.figures",
        _ => "hpcc.figures",
    }
}

/// One regeneration of every artifact: the figures one by one (the work
/// of `run_figures("all")`, split so each family gets its own span),
/// then the tables, ablations, accuracy study and ECM table.
fn regenerate(tr: &mut Tracer) -> Vec<(&'static str, String)> {
    let m = machines::a64fx();
    let mut out = Vec::new();
    let mut npb: Vec<Measurement> = Vec::new();
    let mut hpcc: Vec<Measurement> = Vec::new();
    for fig in ookami_bench::ALL_FIGURES {
        let (text, rows) = tr
            .span(figure_layer(fig), || ookami_bench::figure(fig))
            .expect("every listed figure renders");
        match fig {
            "fig3" | "fig4" | "fig5" | "fig6" => npb.extend(rows),
            "fig8" | "fig9" => hpcc.extend(rows),
            _ => {}
        }
        out.push((fig, text));
    }
    out.push(("npb_figures.csv", to_csv(&npb)));
    out.push(("hpcc_figures.csv", to_csv(&hpcc)));
    out.push((
        "tables",
        tr.span("bench.tables", || ookami_bench::run_tables("all")),
    ));
    out.push((
        "ablations",
        tr.span("bench.ablations", || ookami_bench::ablations::render_all(m)),
    ));
    out.push((
        "accuracy",
        tr.span("bench.accuracy", || render_rows(&accuracy_study())),
    ));
    out.push((
        "ecm",
        tr.span("bench.ecm", || {
            let rows = ookami_bench::ecm::ecm_families(m, 8);
            render_ecm_table(&ookami_bench::ecm::ecm_table_rows(&rows), m)
        }),
    ));
    out
}

/// The child side of one op: regenerate, compare, and report on stdout
/// (`artifact NAME ok|fail`, `span NAME START_NS END_NS`, `memo HITS
/// MISSES`, `rss PEAK_MIB`). With `run == false` the child only starts the worker pool.
pub fn child(run: bool, tr: &mut Tracer) {
    ookami_core::par_for(0, 2, |_, _, _| {});
    if !run {
        return;
    }
    let outputs = regenerate(tr);
    let (hits, misses) = ookami_uarch::memo::cache_stats();
    let mut s = String::new();
    for (name, text) in &outputs {
        let ok = reference(name) == Some(text.as_str());
        s.push_str(&format!(
            "artifact {name} {}\n",
            if ok { "ok" } else { "fail" }
        ));
    }
    for sp in tr.spans() {
        s.push_str(&format!("span {} {} {}\n", sp.name, sp.start_ns, sp.end_ns));
    }
    s.push_str(&format!("memo {hits} {misses}\n"));
    s.push_str(&format!("rss {}\n", crate::peak_rss_mb()));
    std::io::stdout()
        .write_all(s.as_bytes())
        .expect("report to the parent on stdout");
}

/// Rewrite the snapshot files from the current program's output.
pub fn update_snapshots() -> std::io::Result<()> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("snapshots");
    std::fs::create_dir_all(&dir)?;
    let mut tr = Tracer::new(false, None);
    for (name, text) in regenerate(&mut tr) {
        if SNAPSHOTS.iter().any(|(n, _)| *n == name) {
            std::fs::write(dir.join(format!("{name}.txt")), text)?;
        }
    }
    Ok(())
}

/// Guest SVE instructions of the accuracy study's 14 bulk sweeps, the
/// only part of an op that runs the bulk executors: each sweep's
/// `to_instrs` length times its blocks. Computed, not counted.
fn accuracy_guest_instrs() -> u64 {
    const VL: usize = 8;
    let blocks = |n: usize| n.div_ceil(VL) as u64;
    let len = |t: Trace| t.to_instrs().len() as u64;
    let mut one_input: Vec<Trace> = [
        ExpVariant::FexpaEstrinCorrected,
        ExpVariant::FexpaHorner,
        ExpVariant::Poly13,
        ExpVariant::Poly13Sleef,
    ]
    .into_iter()
    .map(|v| exp_trace(VL, v))
    .collect();
    one_input.push(Trace::record1(VL, sin::sin));
    for d in [log::DivStyle::Newton, log::DivStyle::Fdiv] {
        one_input.push(Trace::record1(VL, |c, p, x| log::log(c, p, x, d)));
    }
    for r in [recip::RecipStyle::Newton, recip::RecipStyle::Fdiv] {
        one_input.push(Trace::record1(VL, |c, p, x| recip::recip(c, p, x, r)));
    }
    for q in [sqrt::SqrtStyle::Newton, sqrt::SqrtStyle::Fsqrt] {
        one_input.push(Trace::record1(VL, |c, p, x| sqrt::sqrt(c, p, x, q)));
    }
    let mut total: u64 = one_input.into_iter().map(|t| len(t) * blocks(40_001)).sum();
    for s in [
        pow::PowStyle::FexpaFast,
        pow::PowStyle::FdivLog,
        pow::PowStyle::SleefDd,
    ] {
        total += len(Trace::record2(VL, |c, p, x, y| pow::pow(c, p, x, y, s))) * blocks(200 * 50);
    }
    total
}

pub struct Paper {
    exe: PathBuf,
    inject: Option<Inject>,
    guest_per_op: u64,
    child_rss_mb: f64,
}

/// What the child reported for one op.
pub struct Output {
    exited_ok: bool,
    artifacts: Vec<bool>,
}

impl Paper {
    /// Set-up is what a user pays before any artifact: starting a process
    /// and its worker pool.
    pub fn setup(exe: PathBuf, inject: Option<Inject>) -> Paper {
        let p = Paper {
            exe,
            inject,
            guest_per_op: 0,
            child_rss_mb: 0.0,
        };
        let ok = p
            .command("none", false)
            .stdout(Stdio::null())
            .status()
            .is_ok_and(|s| s.success());
        assert!(ok, "the paper-repro child process failed to start");
        p
    }

    fn command(&self, what: &str, trace: bool) -> Command {
        let mut c = Command::new(&self.exe);
        c.args(["--paper-op", what, "--trace", if trace { "1" } else { "0" }]);
        if let Some(i) = self.inject {
            c.args(["--inject", &i.to_string()]);
        }
        c
    }
}

impl Workload for Paper {
    type Op = ();
    type Output = Output;

    fn round(&self, _rng: &mut Rng) -> Vec<()> {
        vec![()]
    }

    fn execute(&mut self, _op: &(), tr: &mut Tracer) -> Output {
        let base = tr.now_ns();
        let out = self
            .command("all", tr.enabled())
            .stderr(Stdio::inherit())
            .output();
        let Ok(out) = out else {
            return Output {
                exited_ok: false,
                artifacts: Vec::new(),
            };
        };
        tr.count("guest_instrs", self.guest_per_op);
        let mut artifacts = Vec::new();
        for line in String::from_utf8_lossy(&out.stdout).lines() {
            let f: Vec<&str> = line.split_whitespace().collect();
            match f.as_slice() {
                ["artifact", _, verdict] => artifacts.push(*verdict == "ok"),
                ["span", name, s, e] => {
                    if let (Some(l), Ok(s), Ok(e)) = (layer(name), s.parse(), e.parse()) {
                        tr.adopt(l, base, s, e);
                    }
                }
                ["memo", h, m] => {
                    tr.count("uarch.memo.hits", h.parse().unwrap_or(0));
                    tr.count("uarch.memo.misses", m.parse().unwrap_or(0));
                }
                ["rss", mb] => {
                    self.child_rss_mb = self.child_rss_mb.max(mb.parse().unwrap_or(0.0));
                }
                _ => {}
            }
        }
        Output {
            exited_ok: out.status.success(),
            artifacts,
        }
    }

    fn check(&self, _op: &(), out: Output) -> bool {
        out.exited_ok && out.artifacts.len() == ARTIFACTS && out.artifacts.iter().all(|&ok| ok)
    }

    fn prepare_references(&mut self) {
        self.guest_per_op = accuracy_guest_instrs();
    }

    fn program_peak_rss_mb(&self) -> Option<f64> {
        Some(self.child_rss_mb)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_artifact_has_a_reference() {
        let mut tr = Tracer::new(true, None);
        let outs = regenerate(&mut tr);
        assert_eq!(outs.len(), ARTIFACTS);
        for (name, text) in &outs {
            assert_eq!(reference(name), Some(text.as_str()), "{name} drifted");
        }
        let layers: Vec<&str> = tr.spans().iter().map(|s| s.name).collect();
        for l in ["loops.figures", "npb.figures", "hpcc.figures", "bench.ecm"] {
            assert!(layers.contains(&l), "no {l} span");
        }
    }

    /// `accuracy_guest_instrs` restates the accuracy study's sweeps; a
    /// study with more or fewer sweeps must fail here, not miscount.
    #[test]
    fn guest_count_covers_every_accuracy_sweep() {
        assert_eq!(accuracy_study().len(), 14);
        assert!(accuracy_guest_instrs() > 0);
    }
}
