//! Spans recorded by the benchmark around each call into a layer's public
//! functions, plus the exact per-round counts every run keeps.
//!
//! The program itself is never instrumented: a span starts just before
//! the benchmark calls into a layer and ends when the call returns. Spans
//! stay in memory and are written out when the run ends.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Every span name the benchmark records (`bench.op` is the root of one
/// op; the rest are the layers it calls into).
pub const LAYERS: [&str; 16] = [
    "bench.op",
    "sve.exec.compiled",
    "sve.exec.replay",
    "sve.record",
    "sve.compile",
    "spmv.addr_trace",
    "spmv.sell_pack",
    "mem.cachesim",
    "loops.figures",
    "npb.figures",
    "lulesh.figures",
    "hpcc.figures",
    "bench.tables",
    "bench.ablations",
    "bench.accuracy",
    "bench.ecm",
];

/// Resolve a layer name to its `'static` spelling.
pub fn layer(name: &str) -> Option<&'static str> {
    LAYERS.iter().copied().find(|l| *l == name)
}

/// The exact-count key for the elements an exec layer processed.
pub fn elems_key(exec_layer: &str) -> &'static str {
    if exec_layer == "sve.exec.compiled" {
        "sve.exec.compiled.elems"
    } else {
        "sve.exec.replay.elems"
    }
}

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// Shared by every span of one op; 0 for spans recorded during set-up.
    pub op: u64,
    /// Elements (or cache accesses) the call processed.
    pub work: u64,
    pub threads: u32,
    /// Whether the call belongs to the serial-vs-parallel comparison
    /// behind `core.pool.par_speedup` (same kernels at both team sizes).
    pub paired: bool,
}

/// A busy-wait added inside one layer's span, for the attribution
/// self-test: the program is untouched, only the benchmark's wrapper
/// around the call slows down.
#[derive(Debug, Clone, Copy)]
pub struct Inject {
    pub layer: &'static str,
    pub delay: Duration,
}

impl Inject {
    /// Parse `LAYER:MICROSECONDS`.
    pub fn parse(s: &str) -> Result<Inject, String> {
        let (name, us) = s
            .split_once(':')
            .ok_or_else(|| format!("--inject wants LAYER:MICROSECONDS, got {s:?}"))?;
        let layer = layer(name).ok_or_else(|| format!("unknown layer {name:?}"))?;
        let us: u64 = us
            .parse()
            .map_err(|_| format!("bad microseconds in --inject {s:?}"))?;
        Ok(Inject {
            layer,
            delay: Duration::from_micros(us),
        })
    }
}

/// The `LAYER:MICROSECONDS` form [`Inject::parse`] reads.
impl std::fmt::Display for Inject {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}", self.layer, self.delay.as_micros())
    }
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u64,
    inject: Option<Inject>,
    counts: BTreeMap<&'static str, u64>,
}

/// Attributes of one span beyond its name.
#[derive(Debug, Clone, Copy, Default)]
pub struct Attrs {
    pub work: u64,
    pub threads: u32,
    pub paired: bool,
}

impl Tracer {
    pub fn new(enabled: bool, inject: Option<Inject>) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
            inject,
            counts: BTreeMap::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    /// Nanoseconds since this tracer's epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span; returns its handle for [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, w: Attrs) -> Option<usize> {
        let h = self.open(name, w);
        // Inside the span: the injected delay is the layer's time.
        if let Some(inj) = self.inject.filter(|i| i.layer == name) {
            spin(inj.delay);
        }
        h
    }

    fn open(&mut self, name: &'static str, w: Attrs) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            op: self.op,
            work: w.work,
            threads: w.threads,
            paired: w.paired,
        });
        self.stack.push(id);
        Some(id)
    }

    pub fn end(&mut self, h: Option<usize>) {
        if let Some(id) = h {
            self.spans[id].end_ns = self.now_ns();
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(id), "spans must nest");
        }
    }

    /// Run `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.span_with(name, Attrs::default(), f)
    }

    pub fn span_with<R>(&mut self, name: &'static str, w: Attrs, f: impl FnOnce() -> R) -> R {
        let h = self.begin(name, w);
        let r = f();
        self.end(h);
        r
    }

    /// Adopt a span measured elsewhere (a child process), placed under the
    /// currently open span with times relative to `base_ns` on this
    /// tracer's clock.
    pub fn adopt(&mut self, name: &'static str, base_ns: u64, start_ns: u64, end_ns: u64) {
        if !self.enabled {
            return;
        }
        self.spans.push(Span {
            name,
            start_ns: base_ns + start_ns,
            end_ns: base_ns + end_ns,
            parent: self.stack.last().copied(),
            op: self.op,
            work: 0,
            threads: 1,
            paired: false,
        });
    }

    /// Add to an exact count (kept whether or not spans are recorded).
    pub fn count(&mut self, key: &'static str, n: u64) {
        *self.counts.entry(key).or_insert(0) += n;
    }

    pub fn take_counts(&mut self) -> BTreeMap<&'static str, u64> {
        std::mem::take(&mut self.counts)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

fn spin(d: Duration) {
    let t0 = Instant::now();
    while t0.elapsed() < d {
        std::hint::spin_loop();
    }
}

/// Per-layer totals folded from a span list.
#[derive(Debug, Default, Clone)]
pub struct LayerTotals {
    /// Self time per span name: duration minus the time its child spans
    /// cover. `bench.op`'s self time is the op time no layer accounts for.
    /// Set-up spans (op 0) and op spans are kept apart.
    pub setup_ns: BTreeMap<&'static str, u64>,
    pub op_ns: BTreeMap<&'static str, u64>,
    /// Rounds the op spans cover.
    pub rounds: usize,
    /// Work per span name (elements, accesses).
    pub work: BTreeMap<&'static str, u64>,
    /// `(ns, elems)` of paired exec spans at one thread and at more.
    pub serial: (u64, u64),
    pub parallel: (u64, u64),
}

impl LayerTotals {
    /// Fold `spans`, whose ops make up `rounds` whole rounds.
    pub fn fold(spans: &[Span], rounds: usize) -> LayerTotals {
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns.saturating_sub(s.start_ns);
            }
        }
        let mut t = LayerTotals {
            rounds,
            ..LayerTotals::default()
        };
        for (i, s) in spans.iter().enumerate() {
            let dur = s.end_ns.saturating_sub(s.start_ns);
            let side = if s.op == 0 {
                &mut t.setup_ns
            } else {
                &mut t.op_ns
            };
            *side.entry(s.name).or_insert(0) += dur.saturating_sub(child_ns[i]);
            *t.work.entry(s.name).or_insert(0) += s.work;
            if s.paired && s.name.starts_with("sve.exec.") {
                let side = if s.threads > 1 {
                    &mut t.parallel
                } else {
                    &mut t.serial
                };
                side.0 += dur;
                side.1 += s.work;
            }
        }
        t
    }

    fn self_ns(&self, name: &str) -> (u64, u64) {
        let get = |m: &BTreeMap<&str, u64>| m.get(name).copied().unwrap_or(0);
        (get(&self.setup_ns), get(&self.op_ns))
    }

    /// Self seconds of one set-up plus one round, as the counts are.
    pub fn busy_s(&self, name: &str) -> f64 {
        let (setup, ops) = self.self_ns(name);
        (setup as f64 + ops as f64 / self.rounds.max(1) as f64) * 1e-9
    }

    /// Self nanoseconds per unit of work, 0 when the layer did no work.
    pub fn ns_per(&self, name: &str) -> f64 {
        let w = self.work.get(name).copied().unwrap_or(0);
        let (setup, ops) = self.self_ns(name);
        if w == 0 {
            0.0
        } else {
            (setup + ops) as f64 / w as f64
        }
    }

    /// Serial ns/elem over parallel ns/elem on the same kernels; 0 when
    /// either side is missing.
    pub fn par_speedup(&self) -> f64 {
        let per = |(ns, e): (u64, u64)| if e == 0 { 0.0 } else { ns as f64 / e as f64 };
        let (s, p) = (per(self.serial), per(self.parallel));
        if s == 0.0 || p == 0.0 {
            0.0
        } else {
            s / p
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op: 1,
            work: 10,
            threads: 1,
            paired: false,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span("bench.op", 0, 100, None),
            span("sve.record", 10, 30, Some(0)),
            span("mem.cachesim", 40, 90, Some(0)),
        ];
        let t = LayerTotals::fold(&spans, 1);
        assert_eq!(t.op_ns["bench.op"], 30);
        assert_eq!(t.op_ns["sve.record"], 20);
        assert_eq!(t.ns_per("mem.cachesim"), 5.0);
        assert_eq!(t.par_speedup(), 0.0);
    }

    #[test]
    fn busy_time_is_one_setup_plus_one_round() {
        let mut spans = vec![span("sve.compile", 0, 100, None)];
        spans[0].op = 0;
        spans.push(span("sve.compile", 200, 240, None));
        spans.push(span("sve.compile", 300, 340, None));
        let t = LayerTotals::fold(&spans, 2);
        assert!((t.busy_s("sve.compile") - 140e-9).abs() < 1e-15);
    }

    #[test]
    fn disabled_tracer_records_nothing_but_counts() {
        let mut tr = Tracer::new(false, None);
        let v = tr.span("sve.record", || 7);
        tr.count("guest_instrs", 3);
        assert_eq!(v, 7);
        assert!(tr.spans().is_empty());
        assert_eq!(tr.take_counts()["guest_instrs"], 3);
    }

    #[test]
    fn inject_parses_known_layers_only() {
        let i = Inject::parse("mem.cachesim:250").expect("valid");
        assert_eq!(i.layer, "mem.cachesim");
        assert_eq!(i.delay, Duration::from_micros(250));
        assert_eq!(i.to_string(), "mem.cachesim:250");
        assert!(Inject::parse("nope:1").is_err());
        assert!(Inject::parse("mem.cachesim").is_err());
        assert!(Inject::parse("mem.cachesim:x").is_err());
    }
}
