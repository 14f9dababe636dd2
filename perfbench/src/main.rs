//! End-to-end and per-layer benchmark of the default (no `obs`) build.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload emu-dense|emu-irregular|paper-repro --seed N --seconds S --trace 0|1
//! ```
//!
//! One process drives a closed loop with one client: the next op starts
//! when the previous one returns. The seed makes every input; the program
//! receives only those inputs. The last stdout line is one JSON object
//! with the end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`). See `perfbench/README.md` for what each workload is for
//! and which metric each layer should move.

mod dense;
mod irregular;
mod paper;
mod speed;
mod stats;
mod tracer;

use stats::{median, percentile, quartiles, Rng};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;
use tracer::{Attrs, Inject, LayerTotals, Tracer};

/// Set-ups per run: at least `SETUPS_MIN`, more while they have taken less
/// than `SETUP_BUDGET_S` (cheap set-ups get more samples), at most
/// `SETUPS_MAX`. `setup_s` is their median.
const SETUPS_MIN: usize = 5;
const SETUPS_MAX: usize = 200;
const SETUP_BUDGET_S: f64 = 4.0;
/// Every phase runs at least this many ops, so p90 has ten samples past it.
const MIN_OPS: usize = 100;
/// A phase stops starting rounds after this long, whatever `MIN_OPS` says.
const PHASE_CAP_S: f64 = 75.0;
/// Untimed ops before the first phase, so lazily built state (pool
/// scratch arenas, allocator pools) is warm when timing starts.
const WARMUP_OPS: usize = 32;
/// Latency percentiles are taken in this many consecutive windows of whole
/// rounds (fewer when a phase has fewer rounds) and reported as the median
/// of the windows' values, so a burst of host load in one stretch of a run
/// moves one window, not the estimate.
const WINDOWS: usize = 10;

/// One workload: a seeded round of ops, each executed (timed) and then
/// checked against a reference that never comes from the code under test.
pub trait Workload {
    type Op;
    type Output;
    /// Every op of one round, in seeded order. Each round does the same
    /// simulated work, so its exact counts repeat.
    fn round(&self, rng: &mut Rng) -> Vec<Self::Op>;
    fn execute(&mut self, op: &Self::Op, tr: &mut Tracer) -> Self::Output;
    fn check(&self, op: &Self::Op, out: Self::Output) -> bool;
    /// Compute the references; runs after set-up and outside its time.
    fn prepare_references(&mut self);
    /// Peak resident MiB of the processes the program ran in, when the
    /// workload ran it in processes of its own; `None` means this one.
    fn program_peak_rss_mb(&self) -> Option<f64> {
        None
    }
}

/// What one timed phase measured.
#[derive(Debug, Default)]
pub struct Phase {
    /// Measured op latencies, round after round.
    pub lat_ns: Vec<u64>,
    pub failed: u64,
    /// Exact counts of each completed round.
    pub rounds: Vec<BTreeMap<&'static str, u64>>,
    /// Each round's host-speed correction ([`speed::factor`]).
    pub speed: Vec<f64>,
    /// Each round's stolen CPU ticks ([`speed::stolen_ticks`]) and wall
    /// time in seconds, from round boundary to round boundary.
    pub stolen: Vec<(u64, f64)>,
}

impl Phase {
    /// The rounds of each of up to [`WINDOWS`] consecutive windows.
    fn windows(&self) -> Vec<std::ops::Range<usize>> {
        let r = self.rounds.len();
        let w = r.min(WINDOWS);
        (0..w).map(|i| i * r / w..(i + 1) * r / w).collect()
    }

    /// Op latencies at the reference host speed and without stolen time,
    /// in ms: each round's probe factor times its window's unstolen share.
    fn op_ms(&self) -> Vec<f64> {
        let per_round = self.lat_ns.len() / self.rounds.len().max(1);
        let mut factor = self.speed.clone();
        for win in self.windows() {
            let (stolen, wall) = self.stolen[win.clone()]
                .iter()
                .fold((0, 0.0), |(s, w), &(s1, w1)| (s + s1, w + w1));
            for f in &mut factor[win] {
                *f *= speed::unstolen(stolen, wall);
            }
        }
        self.lat_ns
            .iter()
            .enumerate()
            .map(|(i, &n)| n as f64 * 1e-6 * factor[i / per_round])
            .collect()
    }

    /// Summed corrected op time of the phase's whole rounds.
    fn busy_s(&self) -> f64 {
        self.op_ms().iter().sum::<f64>() * 1e-3
    }

    /// Summed op time as measured.
    fn measured_busy_s(&self) -> f64 {
        self.lat_ns.iter().sum::<u64>() as f64 * 1e-9
    }

    /// Ops completed per second of op time.
    pub fn ops_per_s(&self) -> f64 {
        self.lat_ns.len() as f64 / self.busy_s()
    }

    /// Guest instructions per second of op time, in millions.
    fn guest_minstr_per_s(&self) -> f64 {
        self.total("guest_instrs") as f64 / self.busy_s() / 1e6
    }

    /// The `q`-quantile of the corrected op latencies ([`Phase::op_ms`]):
    /// the median over up to [`WINDOWS`] consecutive windows of whole
    /// rounds of each window's quantile. Every window holds the same mix
    /// of ops.
    fn latency_ms(&self, q: f64) -> f64 {
        if self.rounds.is_empty() {
            return 0.0;
        }
        let per_round = self.lat_ns.len() / self.rounds.len();
        let ms = self.op_ms();
        let qs: Vec<f64> = self
            .windows()
            .into_iter()
            .map(|win| percentile(&ms[win.start * per_round..win.end * per_round], q))
            .collect();
        median(&qs)
    }

    fn total(&self, key: &str) -> u64 {
        self.rounds
            .iter()
            .map(|r| r.get(key).copied().unwrap_or(0))
            .sum()
    }

    /// Whether every round's exact counts equal the first round's.
    pub fn rounds_agree(&self) -> bool {
        self.rounds.windows(2).all(|w| w[0] == w[1])
    }
}

/// Run whole rounds until `seconds` have passed and at least
/// [`MIN_OPS`] ops completed, probing the host's speed at every round
/// boundary.
pub fn run_phase<W: Workload>(
    w: &mut W,
    rng: &mut Rng,
    tr: &mut Tracer,
    seconds: f64,
    op_id: &mut u64,
) -> Phase {
    let wall = Instant::now();
    let mut p = Phase::default();
    tr.take_counts();
    let mut probe = speed::probe_ns();
    let mut ticks = speed::stolen_ticks();
    let mut mark = Instant::now();
    loop {
        let t = wall.elapsed().as_secs_f64();
        if (t >= seconds && p.lat_ns.len() >= MIN_OPS) || t >= PHASE_CAP_S {
            break;
        }
        for op in w.round(rng) {
            *op_id += 1;
            tr.set_op(*op_id);
            let h = tr.begin("bench.op", Attrs::default());
            let t0 = Instant::now();
            let out = w.execute(&op, tr);
            let ns = t0.elapsed().as_nanos() as u64;
            tr.end(h);
            if !w.check(&op, out) {
                p.failed += 1;
            }
            p.lat_ns.push(ns);
        }
        p.rounds.push(tr.take_counts());
        let next = speed::probe_ns();
        p.speed.push(speed::factor(probe, next));
        probe = next;
        let now = speed::stolen_ticks();
        p.stolen.push((now - ticks, mark.elapsed().as_secs_f64()));
        (ticks, mark) = (now, Instant::now());
    }
    p
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    inject: Option<Inject>,
    paper_op: Option<bool>,
    update_snapshots: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        inject: None,
        paper_op: None,
        update_snapshots: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--update-snapshots" {
            a.update_snapshots = true;
            continue;
        }
        let v = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => a.workload = v,
            "--seed" => a.seed = v.parse().map_err(|_| format!("bad --seed {v:?}"))?,
            "--seconds" => {
                a.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad --seconds {v:?}"))?;
            }
            "--trace" => {
                a.trace = match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {v:?}")),
                }
            }
            "--inject" => a.inject = Some(Inject::parse(&v)?),
            "--paper-op" => {
                a.paper_op = Some(match v.as_str() {
                    "all" => true,
                    "none" => false,
                    _ => return Err(format!("--paper-op takes all or none, got {v:?}")),
                });
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(a)
}

/// Host facts printed with every result.
struct Host {
    nproc: usize,
    caches: Vec<(String, u64)>,
    llc_bytes: u64,
    rustc: String,
}

fn cache_size(s: &str) -> Option<u64> {
    let s = s.trim();
    let (num, mult) = match s.strip_suffix('K') {
        Some(n) => (n, 1024),
        None => match s.strip_suffix('M') {
            Some(n) => (n, 1024 * 1024),
            None => (s, 1),
        },
    };
    num.parse::<u64>().ok().map(|n| n * mult)
}

/// Fallback LLC size when the host does not describe its caches.
const DEFAULT_LLC: u64 = 32 << 20;

fn host() -> Host {
    let mut caches = Vec::new();
    for i in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
        let read = |f: &str| std::fs::read_to_string(format!("{dir}/{f}")).ok();
        let (Some(level), Some(kind), Some(size)) = (read("level"), read("type"), read("size"))
        else {
            continue;
        };
        if let Some(bytes) = cache_size(&size) {
            caches.push((format!("L{}{}", level.trim(), kind.trim()), bytes));
        }
    }
    let llc_bytes = caches
        .iter()
        .filter(|(n, _)| !n.ends_with("Instruction"))
        .map(|(_, b)| *b)
        .max()
        .unwrap_or(DEFAULT_LLC);
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .map_or_else(
            || "unknown".into(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        );
    Host {
        nproc: ookami_core::auto_threads(),
        caches,
        llc_bytes,
        rustc,
    }
}

impl Host {
    fn json(&self) -> String {
        let caches: Vec<String> = self
            .caches
            .iter()
            .map(|(n, b)| format!("\"{n}\": {b}"))
            .collect();
        format!(
            "{{\"nproc\": {}, \"caches_bytes\": {{{}}}, \"llc_bytes\": {}, \"rustc\": \"{}\", \
             \"build\": \"release, default features (no obs)\", \
             \"target_cpu_native\": {}, \"fma\": {}}}",
            self.nproc,
            caches.join(", "),
            self.llc_bytes,
            self.rustc,
            cfg!(target_feature = "avx2"),
            cfg!(target_feature = "fma"),
        )
    }
}

/// Peak resident set (VmHWM) in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn out_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("perfbench/target"), PathBuf::from);
    target.join("perfbench-out")
}

/// `(name, value, unit)` rows.
type Metrics = Vec<(&'static str, f64, &'static str)>;

fn result_json(correct: bool, attempted: usize, failed: u64, m: &Metrics) -> String {
    let fields: Vec<String> = m
        .iter()
        .map(|(n, v, u)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{n}\": {{\"value\": {v:?}, \"unit\": \"{u}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        fields.join(", ")
    )
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// Everything one run measured, before it is turned into metrics.
struct Run {
    /// Set-up times at the reference speed, and as measured.
    setup_s: Vec<f64>,
    measured_setup_s: Vec<f64>,
    /// Exact counts of the last set-up (compiles done there, e.g.).
    setup_counts: BTreeMap<&'static str, u64>,
    untraced: Phase,
    traced: Option<Phase>,
    spans: Vec<tracer::Span>,
    peak_rss_mb: f64,
}

fn measure<W: Workload>(args: &Args, mut setup: impl FnMut(&mut Tracer) -> W) -> Run {
    let mut tr = Tracer::new(false, args.inject);
    let mut setup_s: Vec<f64> = Vec::new();
    let mut measured_setup_s: Vec<f64> = Vec::new();
    let mut w = None;
    let mut probe = speed::probe_ns();
    let (ticks, mark) = (speed::stolen_ticks(), Instant::now());
    while setup_s.len() < SETUPS_MIN
        || (setup_s.len() < SETUPS_MAX && measured_setup_s.iter().sum::<f64>() < SETUP_BUDGET_S)
    {
        tr.take_counts();
        drop(w.take());
        let t0 = Instant::now();
        w = Some(setup(&mut tr));
        let s = t0.elapsed().as_secs_f64();
        let next = speed::probe_ns();
        measured_setup_s.push(s);
        setup_s.push(s * speed::factor(probe, next));
        probe = next;
    }
    let unstolen = speed::unstolen(speed::stolen_ticks() - ticks, mark.elapsed().as_secs_f64());
    for s in &mut setup_s {
        *s *= unstolen;
    }
    if args.trace {
        // One more, traced, so layers that work only in set-up (recording
        // and compiling on emu-dense) show in the per-layer metrics.
        tr.set_enabled(true);
        tr.take_counts();
        drop(w.take());
        w = Some(setup(&mut tr));
    }
    let setup_counts = tr.take_counts();
    let mut w = w.expect("at least one set-up");
    w.prepare_references();
    tr.set_enabled(false);
    for op in w.round(&mut Rng::new(!args.seed)).iter().take(WARMUP_OPS) {
        let out = w.execute(op, &mut tr);
        w.check(op, out);
    }
    tr.take_counts();
    let mut rng = Rng::new(args.seed ^ 0x0B5E_55ED);
    let mut op_id = 0;
    // A traced run splits its time between an untraced phase (the base of
    // the tracing overhead) and the traced one.
    let seconds = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let untraced = run_phase(&mut w, &mut rng, &mut tr, seconds, &mut op_id);
    let traced = args.trace.then(|| {
        tr.set_enabled(true);
        run_phase(&mut w, &mut rng, &mut tr, seconds, &mut op_id)
    });
    Run {
        setup_s,
        measured_setup_s,
        setup_counts,
        untraced,
        traced,
        spans: tr.spans().to_vec(),
        peak_rss_mb: w.program_peak_rss_mb().unwrap_or_else(peak_rss_mb),
    }
}

impl Run {
    /// Exact counts: the last set-up's, then one round's.
    fn exact(&self) -> BTreeMap<String, u64> {
        let mut e = BTreeMap::new();
        for (k, v) in &self.setup_counts {
            e.insert(format!("setup.{k}"), *v);
        }
        if let Some(r) = self.untraced.rounds.first() {
            for (k, v) in r {
                e.insert(format!("round.{k}"), *v);
            }
        }
        e
    }

    /// Set-up plus one round, summed per key.
    fn count(&self, key: &str) -> u64 {
        self.setup_counts.get(key).copied().unwrap_or(0)
            + self
                .untraced
                .rounds
                .first()
                .and_then(|r| r.get(key).copied())
                .unwrap_or(0)
    }

    fn end_to_end(&self) -> Metrics {
        let p = &self.untraced;
        vec![
            ("setup_s", median(&self.setup_s), "s"),
            ("ops_per_s", p.ops_per_s(), "1/s"),
            ("op_p50_ms", p.latency_ms(0.5), "ms"),
            ("op_p90_ms", p.latency_ms(0.9), "ms"),
            ("guest_minstr_per_s", p.guest_minstr_per_s(), "Minstr/s"),
            ("peak_rss_mb", self.peak_rss_mb, "MiB"),
            (
                "pass_ratio",
                1.0 - p.failed as f64 / p.lat_ns.len() as f64,
                "ratio",
            ),
        ]
    }

    fn per_layer(&self) -> Metrics {
        let traced = self.traced.as_ref().expect("a traced run");
        let t = LayerTotals::fold(&self.spans, traced.rounds.len());
        let c = |k| self.count(k);
        let mut m: Metrics = vec![
            (
                "sve.exec.compiled.busy_s",
                t.busy_s("sve.exec.compiled"),
                "s",
            ),
            (
                "sve.exec.compiled.ns_per_elem",
                t.ns_per("sve.exec.compiled"),
                "ns",
            ),
            (
                "sve.exec.compiled.elems",
                c("sve.exec.compiled.elems") as f64,
                "count",
            ),
            ("sve.exec.replay.busy_s", t.busy_s("sve.exec.replay"), "s"),
            (
                "sve.exec.replay.ns_per_elem",
                t.ns_per("sve.exec.replay"),
                "ns",
            ),
            (
                "sve.exec.replay.elems",
                c("sve.exec.replay.elems") as f64,
                "count",
            ),
        ];
        m.extend([
            ("sve.record.calls", c("sve.record.calls") as f64, "count"),
            ("sve.record.busy_s", t.busy_s("sve.record"), "s"),
            ("sve.compile.calls", c("sve.compile.calls") as f64, "count"),
            ("sve.compile.busy_s", t.busy_s("sve.compile"), "s"),
            (
                "sve.compile.native_ratio",
                ratio(c("sve.compile.native"), c("sve.compile.calls")),
                "ratio",
            ),
            (
                "sve.compile.opt_op_ratio",
                ratio(c("sve.compile.opt_ops"), c("sve.compile.body_ops")),
                "ratio",
            ),
            ("core.pool.par_speedup", t.par_speedup(), "x"),
            ("spmv.addr_trace.busy_s", t.busy_s("spmv.addr_trace"), "s"),
            ("spmv.sell_pack.busy_s", t.busy_s("spmv.sell_pack"), "s"),
            (
                "spmv.lane_utilization",
                ratio(c("spmv.nnz"), c("spmv.padded")),
                "ratio",
            ),
            ("mem.cachesim.busy_s", t.busy_s("mem.cachesim"), "s"),
            ("mem.cachesim.ns_per_access", t.ns_per("mem.cachesim"), "ns"),
            (
                "mem.cachesim.accesses",
                c("mem.cachesim.accesses") as f64,
                "count",
            ),
            (
                "mem.cachesim.l1_hit_ratio",
                ratio(c("mem.cachesim.l1_hits"), c("mem.cachesim.accesses")),
                "ratio",
            ),
            (
                "mem.cachesim.mem_lines",
                c("mem.cachesim.mem_lines") as f64,
                "count",
            ),
        ]);
        m.extend([
            ("loops.figures.busy_s", t.busy_s("loops.figures"), "s"),
            ("npb.figures.busy_s", t.busy_s("npb.figures"), "s"),
            ("lulesh.figures.busy_s", t.busy_s("lulesh.figures"), "s"),
            ("hpcc.figures.busy_s", t.busy_s("hpcc.figures"), "s"),
            ("bench.tables.busy_s", t.busy_s("bench.tables"), "s"),
            ("bench.ablations.busy_s", t.busy_s("bench.ablations"), "s"),
            ("bench.accuracy.busy_s", t.busy_s("bench.accuracy"), "s"),
            ("bench.ecm.busy_s", t.busy_s("bench.ecm"), "s"),
        ]);
        let (hits, misses) = (c("uarch.memo.hits"), c("uarch.memo.misses"));
        m.extend([
            ("uarch.memo.misses", misses as f64, "count"),
            ("uarch.memo.hit_ratio", ratio(hits, hits + misses), "ratio"),
            ("bench.unattributed_s", t.busy_s("bench.op"), "s"),
            (
                "bench.trace_overhead_ratio",
                traced.ops_per_s() / self.untraced.ops_per_s(),
                "ratio",
            ),
        ]);
        m
    }
}

/// Compare this run's exact counts with the last run of the same workload
/// and seed in this checkout. Same executable: any difference is a
/// failure. Another build: report the difference, which is what a change
/// that only speeds up the simulator must not show.
fn check_exact(workload: &str, seed: u64, exact: &BTreeMap<String, u64>) -> bool {
    let dir = out_dir();
    let path = dir.join(format!("exact-{workload}-seed{seed}.txt"));
    let fingerprint = std::env::current_exe()
        .and_then(std::fs::metadata)
        .map(|m| {
            let t = m
                .modified()
                .ok()
                .and_then(|t| t.duration_since(std::time::UNIX_EPOCH).ok())
                .map_or(0, |d| d.as_nanos());
            format!("{}-{t}", m.len())
        })
        .unwrap_or_default();
    let mut text = format!("build {fingerprint}\n");
    for (k, v) in exact {
        text.push_str(&format!("{k} {v}\n"));
    }
    let mut ok = true;
    if let Ok(prev) = std::fs::read_to_string(&path) {
        let (prev_build, prev_counts) = prev.split_once('\n').unwrap_or(("", ""));
        let counts = text.split_once('\n').map_or("", |x| x.1);
        if prev_counts != counts {
            if prev_build == format!("build {fingerprint}") {
                eprintln!(
                    "exact counts differ from the previous run of this build ({})",
                    path.display()
                );
                ok = false;
            } else {
                eprintln!(
                    "note: simulated statistics differ from the previous build's ({})",
                    path.display()
                );
            }
        }
    }
    if std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, text))
        .is_err()
    {
        eprintln!("could not write {}", path.display());
    }
    ok
}

fn write_spans(workload: &str, seed: u64, host: &Host, spans: &[tracer::Span]) {
    let dir = out_dir();
    let path = dir.join(format!("spans-{workload}-seed{seed}.jsonl"));
    let mut s = format!("{{\"host\": {}}}\n", host.json());
    for sp in spans {
        s.push_str(&format!(
            "{{\"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \"op\": {}, \"work\": {}, \"threads\": {}}}\n",
            sp.name,
            sp.start_ns,
            sp.end_ns,
            sp.parent.map_or("null".to_string(), |p| p.to_string()),
            sp.op,
            sp.work,
            sp.threads,
        ));
    }
    if std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, s))
        .is_err()
    {
        eprintln!("could not write {}", path.display());
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if args.update_snapshots {
        if let Err(e) = paper::update_snapshots() {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
        return;
    }
    if let Some(run) = args.paper_op {
        paper::child(run, &mut Tracer::new(args.trace, args.inject));
        return;
    }
    let host = host();
    let threads = host.nproc;
    let run = match args.workload.as_str() {
        "emu-dense" => measure(&args, |tr| {
            ookami_core::par_for(threads, threads, |_, _, _| {});
            dense::Dense::setup(args.seed, host.llc_bytes as usize, threads, tr)
        }),
        "emu-irregular" => measure(&args, |_| {
            ookami_core::par_for(threads, threads, |_, _, _| {});
            irregular::Irregular::setup(args.seed, threads)
        }),
        "paper-repro" => {
            let exe = std::env::current_exe().expect("the benchmark knows its own path");
            measure(&args, |_| paper::Paper::setup(exe.clone(), args.inject))
        }
        other => {
            eprintln!(
                "perfbench: unknown workload {other:?} (emu-dense, emu-irregular, paper-repro)"
            );
            std::process::exit(2);
        }
    };
    let exact = run.exact();
    let exact_ok = run.untraced.rounds_agree()
        && run
            .traced
            .as_ref()
            .is_none_or(|t| t.rounds_agree() && t.rounds.first() == run.untraced.rounds.first())
        && check_exact(&args.workload, args.seed, &exact);
    if args.trace {
        write_spans(&args.workload, args.seed, &host, &run.spans);
    }
    let metrics = if args.trace {
        run.per_layer()
    } else {
        run.end_to_end()
    };
    let attempted = run.untraced.lat_ns.len() + run.traced.as_ref().map_or(0, |t| t.lat_ns.len());
    let failed = run.untraced.failed + run.traced.as_ref().map_or(0, |t| t.failed);
    for (n, v, u) in &metrics {
        eprintln!("{n:<32} {v:>16.6} {u}");
    }
    let p = &run.untraced;
    let (q1, q3) = quartiles(&p.op_ms());
    eprintln!(
        "{} ops in {} rounds; op latency quartiles {q1:.4} / {q3:.4} ms",
        p.lat_ns.len(),
        p.rounds.len()
    );
    let (s1, s3) = quartiles(&run.setup_s);
    eprintln!(
        "{} set-ups; set-up time quartiles {s1:.5} / {s3:.5} s",
        run.setup_s.len()
    );
    let (f1, f3) = quartiles(&p.speed);
    let (stolen, wall) = p
        .stolen
        .iter()
        .fold((0, 0.0), |(s, w), &(s1, w1)| (s + s1, w + w1));
    eprintln!(
        "host-speed correction quartiles {f1:.4} / {f3:.4}; stolen CPU time {:.4} of wall time; \
         as measured: setup_s {:.6}, ops_per_s {:.4}",
        1.0 - speed::unstolen(stolen, wall),
        median(&run.measured_setup_s),
        p.lat_ns.len() as f64 / p.measured_busy_s(),
    );
    println!("host {}", host.json());
    println!(
        "{}",
        result_json(failed == 0 && exact_ok, attempted, failed, &metrics)
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ops<W: Workload>(w: &W, seed: u64) -> Vec<W::Op> {
        let mut rng = Rng::new(seed);
        let mut v = w.round(&mut rng);
        v.extend(w.round(&mut rng));
        v
    }

    /// The same seed gives the same op sequence and the same operands (so
    /// the same outputs); another seed gives other operands.
    fn same_seed_same_work<W: Workload>(mut a: W, mut b: W, mut c: W)
    where
        W::Op: PartialEq + std::fmt::Debug,
        W::Output: PartialEq + std::fmt::Debug,
    {
        let mut tr = Tracer::new(false, None);
        assert_eq!(ops(&a, 9), ops(&b, 9));
        assert_ne!(ops(&a, 9), ops(&a, 10));
        let mut differs = false;
        for op in ops(&a, 9).iter().take(8) {
            let out = a.execute(op, &mut tr);
            assert_eq!(out, b.execute(op, &mut tr));
            differs |= out != c.execute(op, &mut tr);
        }
        assert!(differs, "another seed must draw other operands");
    }

    #[test]
    fn a_seed_reproduces_ops_and_operands() {
        let mut tr = Tracer::new(false, None);
        let mut dense = |seed| dense::Dense::setup(seed, 4 << 20, 2, &mut tr);
        same_seed_same_work(dense(5), dense(5), dense(6));
        let irregular = |seed| irregular::Irregular::setup(seed, 2);
        same_seed_same_work(irregular(5), irregular(5), irregular(6));
    }

    #[test]
    fn a_corrupted_reference_fails_its_ops() {
        let mut tr = Tracer::new(false, None);
        let mut w = dense::Dense::setup(1, 4 << 20, 2, &mut tr);
        w.prepare_references();
        let mut id = 0;
        let clean = run_phase(&mut w, &mut Rng::new(1), &mut tr, 0.0, &mut id);
        assert_eq!(clean.failed, 0);
        assert!(clean.rounds_agree());
        w.corrupt_reference(0);
        let bad = run_phase(&mut w, &mut Rng::new(1), &mut tr, 0.0, &mut id);
        // Every op of family 0 reads period element 0 somewhere.
        let per_round = w
            .round(&mut Rng::new(1))
            .iter()
            .filter(|o| o.family == 0)
            .count();
        assert_eq!(bad.failed as usize, per_round * bad.rounds.len());

        let mut w = irregular::Irregular::setup(1, 2);
        w.prepare_references();
        let clean = run_phase(&mut w, &mut Rng::new(1), &mut tr, 0.0, &mut id);
        assert_eq!(clean.failed, 0);
        w.corrupt_reference();
        let bad = run_phase(&mut w, &mut Rng::new(1), &mut tr, 0.0, &mut id);
        assert!(bad.failed > 0);
    }

    /// A burst of slow ops in one window moves that window's quantiles,
    /// not their median; throughput counts every op's time.
    #[test]
    fn latency_quantiles_are_medians_over_windows() {
        let mut p = Phase::default();
        for r in 0..20u64 {
            let slow = if r < 2 { 50 } else { 1 };
            p.lat_ns.extend([1_000_000 * slow, 2_000_000 * slow]);
            p.rounds.push(BTreeMap::new());
            p.speed.push(1.0);
            p.stolen.push((0, 1.0));
        }
        assert_eq!(p.latency_ms(0.0), 1.0);
        assert_eq!(p.latency_ms(1.0), 2.0);
        assert!((p.ops_per_s() - 40.0 / 0.354).abs() < 1e-9);
    }

    #[test]
    fn exact_counts_repeat_for_a_seed() {
        let counts = |seed| {
            let mut tr = Tracer::new(false, None);
            let mut w = irregular::Irregular::setup(seed, 2);
            w.prepare_references();
            let mut id = 0;
            let p = run_phase(&mut w, &mut Rng::new(seed), &mut tr, 0.0, &mut id);
            assert!(p.rounds_agree());
            p.rounds[0].clone()
        };
        let a = counts(3);
        assert_eq!(a, counts(3));
        assert!(a["mem.cachesim.accesses"] > 0 && a["guest_instrs"] > 0);
    }
}
