//! Live telemetry on top of the `obs` counters and the timeline tracer:
//! log-bucketed latency histograms, continuous sampling sessions, and the
//! Prometheus text renderer/validator behind `ookamiserve`'s `/metrics`.
//!
//! The source paper's methodology is *live* measurement — counters watched
//! while the machine runs, not post-mortem dumps. This module is the
//! observability half of the planned `ookamid` server: everything a
//! long-running process needs to be observed mid-flight.
//!
//! Three layers, following the `obs`/`timeline` design rules:
//!
//! * **Histograms** ([`record`], [`HistSnapshot`]): lock-free per-thread
//!   log-bucketed (base-2) histograms keyed by `(kind, label)` — per-region
//!   latency, per-chunk duration, barrier waits, SVE sample intervals.
//!   Bucket counts are exact and deterministic (bucketing is a pure
//!   function of the value, never sampled), so identity gates can compare
//!   them bit-for-bit across executors. Snapshots merge associatively and
//!   commutatively; quantiles are bucket-upper-edge estimates clamped to
//!   the recorded maximum.
//! * **Sampling sessions** ([`Sampler`]): a background thread snapshots
//!   counters + histograms every `period` into a bounded ring (drop-oldest
//!   with a dropped count) under a monotonic generation id, so a long run
//!   can be observed without stopping it.
//! * **Exposition** ([`prometheus`], [`validate_prometheus`]): the scalar
//!   counters plus full histogram exposition (cumulative `le` buckets,
//!   `_sum`/`_count`, p50/p90/p99/max gauges) as Prometheus text, with a
//!   dependency-free validator used by tests and `ookamiserve --selfcheck`.
//!
//! [`record`] is gated by the `obs` run-time switch ([`crate::obs::enabled`]),
//! so with it off nothing is recorded and [`snapshots`] stays empty;
//! [`HistSnapshot`] itself is pure data and works either way.
//!
//! The span-tree profiler lives in [`spantree`]; the HTTP endpoint that
//! serves all of this lives in [`serve`].

pub mod serve;
pub mod spantree;

use crate::obs::{Snapshot, COUNTERS};
use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------
// Log-bucketed histograms
// ---------------------------------------------------------------------

/// Bucket count: bucket 0 holds the value 0, bucket `i ≥ 1` holds
/// `[2^(i-1), 2^i - 1]`, up to bucket 64 for values with the top bit set.
pub const HIST_BUCKETS: usize = 65;

/// What a histogram series measures. Each kind owns one Prometheus metric
/// name and one label key; the label value is the series discriminator
/// (region path, schedule name, …).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum HistKind {
    /// Wall time of one `obs::region` span closing, labeled by the full
    /// slash-joined span path.
    RegionLatencyNs,
    /// Wall time of one scheduled pool chunk, labeled by schedule name.
    ChunkDurationNs,
    /// Time spent waiting at the pool completion barrier, labeled by site.
    BarrierWaitNs,
    /// Retired-instruction distance between two periodic SVE counter
    /// samples, labeled by engine.
    SampleInstrs,
}

/// Every histogram kind, in export order.
pub const HIST_KINDS: [HistKind; 4] = [
    HistKind::RegionLatencyNs,
    HistKind::ChunkDurationNs,
    HistKind::BarrierWaitNs,
    HistKind::SampleInstrs,
];

impl HistKind {
    /// Prometheus metric name (also the JSON export key).
    pub fn metric(self) -> &'static str {
        match self {
            HistKind::RegionLatencyNs => "ookami_region_latency_ns",
            HistKind::ChunkDurationNs => "ookami_chunk_duration_ns",
            HistKind::BarrierWaitNs => "ookami_barrier_wait_ns",
            HistKind::SampleInstrs => "ookami_sample_interval_instrs",
        }
    }

    /// Label key discriminating series of this kind.
    pub fn label_key(self) -> &'static str {
        match self {
            HistKind::RegionLatencyNs => "path",
            HistKind::ChunkDurationNs => "sched",
            HistKind::BarrierWaitNs => "site",
            HistKind::SampleInstrs => "engine",
        }
    }
}

/// Bucket index for a value: 0 for 0, else `64 - leading_zeros(v)` (the
/// position of the highest set bit, one-based). Pure and branch-light, so
/// counts are exactly reproducible across executors.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// Smallest value landing in bucket `i`.
pub fn bucket_lower(i: usize) -> u64 {
    if i == 0 {
        0
    } else {
        1u64 << (i - 1)
    }
}

/// Largest value landing in bucket `i`.
pub fn bucket_upper(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

/// A mergeable point-in-time histogram: exact per-bucket counts plus the
/// running sum and max. Pure data, independent of the `obs` switch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistSnapshot {
    counts: [u64; HIST_BUCKETS],
    sum: u64,
    max: u64,
}

impl Default for HistSnapshot {
    fn default() -> Self {
        HistSnapshot::new()
    }
}

impl HistSnapshot {
    pub fn new() -> HistSnapshot {
        HistSnapshot {
            counts: [0; HIST_BUCKETS],
            sum: 0,
            max: 0,
        }
    }

    /// Count one value.
    pub fn observe(&mut self, v: u64) {
        self.counts[bucket_index(v)] += 1;
        self.sum = self.sum.saturating_add(v);
        self.max = self.max.max(v);
    }

    /// Merge `other` into `self`. Associative and commutative (saturating
    /// adds, max of maxes) — the property the sampler and the per-thread
    /// aggregation lean on, proptest-pinned in `telemetry_props.rs`.
    pub fn merge(&mut self, other: &HistSnapshot) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a = a.saturating_add(*b);
        }
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }

    pub fn sum(&self) -> u64 {
        self.sum
    }

    pub fn max(&self) -> u64 {
        self.max
    }

    pub fn is_empty(&self) -> bool {
        self.counts.iter().all(|&c| c == 0)
    }

    /// Observations in bucket `i`.
    pub fn bucket_count(&self, i: usize) -> u64 {
        self.counts[i]
    }

    /// Mean of all observations (0.0 when empty).
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum as f64 / n as f64
        }
    }

    /// Quantile estimate: the upper edge of the bucket containing the
    /// `ceil(q·count)`-th observation, clamped to the recorded max (which
    /// only tightens the top non-empty bucket, so the estimate always
    /// stays within its bucket's `[lower, upper]` edges).
    pub fn quantile(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= rank {
                return bucket_upper(i).min(self.max);
            }
        }
        self.max
    }
}

// ---------------------------------------------------------------------
// Recording: per-thread atomic blocks, global registry
// ---------------------------------------------------------------------

/// One thread's counts for one `(kind, label)` series. Only the owner
/// writes; readers snapshot with relaxed loads (monotone counters, so a
/// torn-across-buckets read still under-counts consistently).
struct HistBlock {
    counts: [AtomicU64; HIST_BUCKETS],
    sum: AtomicU64,
    max: AtomicU64,
}

impl HistBlock {
    fn new() -> HistBlock {
        HistBlock {
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    fn observe(&self, v: u64) {
        self.counts[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    fn read(&self) -> HistSnapshot {
        let mut s = HistSnapshot::new();
        for (i, c) in self.counts.iter().enumerate() {
            s.counts[i] = c.load(Ordering::Relaxed);
        }
        s.sum = self.sum.load(Ordering::Relaxed);
        s.max = self.max.load(Ordering::Relaxed);
        s
    }

    fn reset(&self) {
        for c in &self.counts {
            c.store(0, Ordering::Relaxed);
        }
        self.sum.store(0, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }
}

/// All blocks ever created; blocks outlive their threads so a late
/// snapshot still sees a finished worker's observations.
#[allow(clippy::type_complexity)]
static REGISTRY: parking_lot::Mutex<Vec<((HistKind, String), Arc<HistBlock>)>> =
    parking_lot::Mutex::new(Vec::new());

thread_local! {
    /// This thread's series cache; the registry mutex is touched only on
    /// first use of a series per thread.
    static LOCAL: RefCell<BTreeMap<HistKind, BTreeMap<String, Arc<HistBlock>>>> =
        const { RefCell::new(BTreeMap::new()) };
}

/// Count one observation on this thread's `(kind, label)` series.
/// Lock-free after the first touch of a series per thread; a no-op while
/// [`crate::obs::enabled`] is off.
#[inline]
pub fn record(kind: HistKind, label: &str, value: u64) {
    if !crate::obs::enabled() {
        return;
    }
    LOCAL.with(|cache| {
        let mut cache = cache.borrow_mut();
        let inner = cache.entry(kind).or_default();
        if let Some(block) = inner.get(label) {
            block.observe(value);
            return;
        }
        let block = Arc::new(HistBlock::new());
        REGISTRY
            .lock()
            .push(((kind, label.to_string()), Arc::clone(&block)));
        inner.insert(label.to_string(), Arc::clone(&block));
        block.observe(value);
    });
}

/// Merged histogram snapshots across all threads, keyed by
/// `(kind, label)`.
pub fn snapshots() -> BTreeMap<(HistKind, String), HistSnapshot> {
    let mut out: BTreeMap<(HistKind, String), HistSnapshot> = BTreeMap::new();
    for ((kind, label), block) in REGISTRY.lock().iter() {
        out.entry((*kind, label.clone()))
            .or_default()
            .merge(&block.read());
    }
    out
}

/// Zero every histogram series (called from `obs::reset`).
pub fn reset() {
    for (_, block) in REGISTRY.lock().iter() {
        block.reset();
    }
}

// ---------------------------------------------------------------------
// Continuous sampling sessions
// ---------------------------------------------------------------------

/// One periodic observation: global counters + all histogram series at one
/// instant, under a monotonic generation id.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Monotonic per-sampler sequence number, starting at 1. Gaps between
    /// the generations a reader sees tell it samples were dropped.
    pub generation: u64,
    /// Nanoseconds since the sampler started.
    pub at_ns: u64,
    pub counters: Snapshot,
    pub hists: BTreeMap<(HistKind, String), HistSnapshot>,
}

struct SamplerShared {
    epoch: Instant,
    retain: usize,
    /// Timeline actor id of the sampler thread, so the race detector can
    /// prove the ring writes are ordered by the spawn/join protocol.
    actor: u64,
    stop: AtomicBool,
    generation: AtomicU64,
    dropped: AtomicU64,
    ring: parking_lot::Mutex<VecDeque<Sample>>,
}

impl SamplerShared {
    fn take(&self) {
        let generation = self.generation.fetch_add(1, Ordering::AcqRel) + 1;
        // Model the ring push as this actor writing slot `generation`
        // (slots are never reused, so well-behaved sampler writes are
        // disjoint by construction).
        crate::timeline::actor_write(self.actor, generation, 1);
        let sample = Sample {
            generation,
            at_ns: self.epoch.elapsed().as_nanos().min(u64::MAX as u128) as u64,
            counters: crate::obs::snapshot(),
            hists: snapshots(),
        };
        let mut ring = self.ring.lock();
        ring.push_back(sample);
        while ring.len() > self.retain {
            ring.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// The process-wide sampler `ookamiserve`'s `/samples` endpoint reads;
/// the most recently started [`Sampler`] wins.
static ACTIVE_SAMPLER: parking_lot::Mutex<Option<Weak<SamplerShared>>> =
    parking_lot::Mutex::new(None);

/// A continuous sampling session: a background thread snapshots counters
/// and histograms every `period` into a ring of the most recent `retain`
/// samples. Stops (and joins) on [`Sampler::stop`] or drop.
pub struct Sampler {
    shared: Arc<SamplerShared>,
    join: Option<std::thread::JoinHandle<()>>,
}

impl Sampler {
    /// Start sampling. Works whatever the `obs` switch says (samples are
    /// empty-ish while it is off, but generations still tick, which is what
    /// the endpoint contract tests rely on).
    pub fn start(period: Duration, retain: usize) -> Sampler {
        let actor = crate::timeline::next_actor_id();
        let shared = Arc::new(SamplerShared {
            epoch: Instant::now(),
            retain: retain.max(1),
            actor,
            stop: AtomicBool::new(false),
            generation: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            ring: parking_lot::Mutex::new(VecDeque::new()),
        });
        *ACTIVE_SAMPLER.lock() = Some(Arc::downgrade(&shared));
        let worker = Arc::clone(&shared);
        // Fork edge first, on the spawning thread: everything before this
        // point happens-before the sampler's ring writes.
        crate::timeline::actor_fork(actor);
        let join = std::thread::Builder::new()
            .name("ookami-sampler".to_string())
            .spawn(move || loop {
                let mut slept = Duration::ZERO;
                while slept < period {
                    if worker.stop.load(Ordering::Acquire) {
                        return;
                    }
                    let step = period.saturating_sub(slept).min(Duration::from_millis(25));
                    std::thread::sleep(step);
                    slept += step;
                }
                if worker.stop.load(Ordering::Acquire) {
                    return;
                }
                worker.take();
            })
            .expect("spawn sampler thread");
        Sampler {
            shared,
            join: Some(join),
        }
    }

    /// Take one sample immediately (deterministic tests and endpoint
    /// selfchecks don't want to wait out a period).
    pub fn force_sample(&self) {
        self.shared.take();
    }

    /// The retained samples, oldest first.
    pub fn samples(&self) -> Vec<Sample> {
        self.shared.ring.lock().iter().cloned().collect()
    }

    /// Samples evicted by ring retention so far.
    pub fn dropped(&self) -> u64 {
        self.shared.dropped.load(Ordering::Relaxed)
    }

    /// The latest generation id handed out (0 before the first sample).
    pub fn generation(&self) -> u64 {
        self.shared.generation.load(Ordering::Relaxed)
    }

    /// Stop and join the background thread (idempotent).
    pub fn stop(&mut self) {
        self.shared.stop.store(true, Ordering::Release);
        if let Some(join) = self.join.take() {
            let _ = join.join();
            // Join edge after the thread join: the sampler's writes
            // happen-before everything the joiner does next.
            crate::timeline::actor_join(self.shared.actor);
        }
    }
}

impl Drop for Sampler {
    fn drop(&mut self) {
        self.stop();
        let mut active = ACTIVE_SAMPLER.lock();
        let ours = active
            .as_ref()
            .and_then(Weak::upgrade)
            .is_some_and(|s| Arc::ptr_eq(&s, &self.shared));
        if ours {
            *active = None;
        }
    }
}

/// Render the active sampler's ring as `ookami-samples-v1` JSON (the
/// `/samples` endpoint body). Parses with `obs::Json`.
pub fn active_samples_json() -> String {
    let active = ACTIVE_SAMPLER.lock().as_ref().and_then(Weak::upgrade);
    let Some(shared) = active else {
        return "{\"schema\":\"ookami-samples-v1\",\"active\":false,\"generation\":0,\
                \"dropped\":0,\"samples\":[]}\n"
            .to_string();
    };
    let samples: Vec<Sample> = shared.ring.lock().iter().cloned().collect();
    let mut o = String::from("{\"schema\":\"ookami-samples-v1\",\"active\":true,");
    let _ = write!(
        o,
        "\"generation\":{},\"dropped\":{},\"samples\":[",
        shared.generation.load(Ordering::Relaxed),
        shared.dropped.load(Ordering::Relaxed)
    );
    for (i, s) in samples.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            o,
            "{sep}\n {{\"generation\":{},\"at_ns\":{},\"counters\":{{",
            s.generation, s.at_ns
        );
        for (j, (name, v)) in s.counters.nonzero().iter().enumerate() {
            let sep = if j == 0 { "" } else { "," };
            let _ = write!(o, "{sep}\"{name}\":{v}");
        }
        o.push_str("},\"hists\":[");
        for (j, ((kind, label), h)) in s.hists.iter().enumerate() {
            let sep = if j == 0 { "" } else { "," };
            let _ = write!(
                o,
                "{sep}{{\"metric\":\"{}\",\"label\":{},\"count\":{},\"sum\":{},\"max\":{},\
                 \"p50\":{},\"p90\":{},\"p99\":{}}}",
                kind.metric(),
                crate::obs::json_str(label),
                h.count(),
                h.sum(),
                h.max(),
                h.quantile(0.50),
                h.quantile(0.90),
                h.quantile(0.99),
            );
        }
        o.push_str("]}");
    }
    o.push_str("\n]}\n");
    o
}

// ---------------------------------------------------------------------
// Prometheus exposition + validator
// ---------------------------------------------------------------------

fn prom_label_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Full Prometheus text exposition: the global counter snapshot, span
/// totals and counts by path, histogram exposition (cumulative `le`
/// buckets, `_sum`, `_count`) and p50/p90/p99/max quantile gauges for
/// every histogram series, plus the active sampler's generation. Always
/// passes [`validate_prometheus`].
pub fn prometheus() -> String {
    let snap = crate::obs::snapshot();
    let mut out = String::from("# TYPE ookami_events_total counter\n");
    for &c in &COUNTERS {
        let _ = writeln!(
            out,
            "ookami_events_total{{counter=\"{}\"}} {}",
            c.name(),
            snap.get(c)
        );
    }
    out.push_str("# TYPE ookami_span_seconds_total counter\n");
    out.push_str("# TYPE ookami_span_count_total counter\n");
    for s in crate::obs::spans() {
        let path = prom_label_escape(&s.path);
        let _ = writeln!(
            out,
            "ookami_span_seconds_total{{path=\"{path}\"}} {:.9}",
            s.total_ns as f64 / 1e9
        );
        let _ = writeln!(
            out,
            "ookami_span_count_total{{path=\"{path}\"}} {}",
            s.count
        );
    }
    let snaps = snapshots();
    for kind in HIST_KINDS {
        let series: Vec<(&String, &HistSnapshot)> = snaps
            .iter()
            .filter(|((k, _), _)| *k == kind)
            .map(|((_, label), h)| (label, h))
            .collect();
        if series.is_empty() {
            continue;
        }
        let metric = kind.metric();
        let key = kind.label_key();
        let _ = writeln!(out, "# TYPE {metric} histogram");
        for (label, h) in &series {
            let base = if label.is_empty() {
                String::new()
            } else {
                format!("{key}=\"{}\",", prom_label_escape(label))
            };
            let mut cum = 0u64;
            for i in 0..HIST_BUCKETS {
                let c = h.bucket_count(i);
                if c == 0 {
                    continue;
                }
                cum += c;
                let _ = writeln!(
                    out,
                    "{metric}_bucket{{{base}le=\"{}\"}} {cum}",
                    bucket_upper(i)
                );
            }
            let _ = writeln!(out, "{metric}_bucket{{{base}le=\"+Inf\"}} {}", h.count());
            let _ = writeln!(
                out,
                "{metric}_sum{{{base_t}}} {}",
                h.sum(),
                base_t = base.trim_end_matches(',')
            );
            let _ = writeln!(
                out,
                "{metric}_count{{{base_t}}} {}",
                h.count(),
                base_t = base.trim_end_matches(',')
            );
        }
        let _ = writeln!(out, "# TYPE {metric}_quantile gauge");
        for (label, h) in &series {
            let base = if label.is_empty() {
                String::new()
            } else {
                format!("{key}=\"{}\",", prom_label_escape(label))
            };
            for (q, qv) in [
                ("0.5", h.quantile(0.50)),
                ("0.9", h.quantile(0.90)),
                ("0.99", h.quantile(0.99)),
                ("1", h.max()),
            ] {
                let _ = writeln!(out, "{metric}_quantile{{{base}quantile=\"{q}\"}} {qv}");
            }
        }
    }
    let generation = ACTIVE_SAMPLER
        .lock()
        .as_ref()
        .and_then(Weak::upgrade)
        .map_or(0, |s| s.generation.load(Ordering::Relaxed));
    out.push_str("# TYPE ookami_sampler_generation gauge\n");
    let _ = writeln!(out, "ookami_sampler_generation {generation}");
    out
}

fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// One parsed sample line: name, labels (in order), value.
fn parse_prom_sample(line: &str) -> Result<(String, Vec<(String, String)>, f64), String> {
    let b = line.as_bytes();
    let mut i = 0usize;
    while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_' || b[i] == b':') {
        i += 1;
    }
    let name = &line[..i];
    if !valid_metric_name(name) {
        return Err(format!("bad metric name in `{line}`"));
    }
    let mut labels = Vec::new();
    if b.get(i) == Some(&b'{') {
        i += 1;
        loop {
            if b.get(i) == Some(&b'}') {
                i += 1;
                break;
            }
            let lstart = i;
            while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
                i += 1;
            }
            let lname = &line[lstart..i];
            if lname.is_empty() || lname.as_bytes()[0].is_ascii_digit() {
                return Err(format!("bad label name in `{line}`"));
            }
            if b.get(i) != Some(&b'=') || b.get(i + 1) != Some(&b'"') {
                return Err(format!("expected =\"...\" after label in `{line}`"));
            }
            i += 2;
            let mut val = String::new();
            loop {
                match b.get(i) {
                    Some(b'"') => {
                        i += 1;
                        break;
                    }
                    Some(b'\\') => {
                        let esc = b.get(i + 1).ok_or_else(|| "dangling escape".to_string())?;
                        match esc {
                            b'\\' => val.push('\\'),
                            b'"' => val.push('"'),
                            b'n' => val.push('\n'),
                            _ => return Err(format!("bad label escape in `{line}`")),
                        }
                        i += 2;
                    }
                    Some(&c) => {
                        val.push(c as char);
                        i += 1;
                    }
                    None => return Err(format!("unterminated label value in `{line}`")),
                }
            }
            labels.push((lname.to_string(), val));
            match b.get(i) {
                Some(b',') => i += 1,
                Some(b'}') => {}
                _ => return Err(format!("expected `,` or `}}` in labels of `{line}`")),
            }
        }
    }
    let rest = line[i..].trim();
    let mut parts = rest.split_ascii_whitespace();
    let value_tok = parts
        .next()
        .ok_or_else(|| format!("missing value in `{line}`"))?;
    let value = match value_tok {
        "+Inf" | "Inf" => f64::INFINITY,
        "-Inf" => f64::NEG_INFINITY,
        "NaN" => f64::NAN,
        t => t
            .parse::<f64>()
            .map_err(|_| format!("bad value `{t}` in `{line}`"))?,
    };
    if let Some(ts) = parts.next() {
        ts.parse::<i64>()
            .map_err(|_| format!("bad timestamp `{ts}` in `{line}`"))?;
    }
    if parts.next().is_some() {
        return Err(format!("trailing tokens in `{line}`"));
    }
    Ok((name.to_string(), labels, value))
}

/// Validate a Prometheus text-exposition document: comment lines must be
/// well-formed `# TYPE`/`# HELP`, sample lines must parse (metric name,
/// label syntax, numeric value), and every `_bucket` family must be
/// cumulative — non-decreasing counts over increasing `le` edges, ending
/// at `+Inf` with a count matching the family's `_count` when present.
pub fn validate_prometheus(text: &str) -> Result<(), String> {
    // (base name, non-le labels) → [(le, count)] in document order.
    #[allow(clippy::type_complexity)]
    let mut buckets: BTreeMap<(String, String), Vec<(f64, f64)>> = BTreeMap::new();
    let mut counts: BTreeMap<(String, String), f64> = BTreeMap::new();
    for (idx, line) in text.lines().enumerate() {
        let lineno = idx + 1;
        if line.is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix('#') {
            let comment = comment.trim_start();
            if let Some(rest) = comment.strip_prefix("TYPE ") {
                let mut it = rest.split_ascii_whitespace();
                let name = it.next().unwrap_or("");
                let ty = it.next().unwrap_or("");
                if !valid_metric_name(name) {
                    return Err(format!("line {lineno}: bad TYPE metric name `{name}`"));
                }
                if !matches!(
                    ty,
                    "counter" | "gauge" | "histogram" | "summary" | "untyped"
                ) {
                    return Err(format!("line {lineno}: bad TYPE `{ty}`"));
                }
            } else if comment.strip_prefix("HELP ").is_none() && !comment.is_empty() {
                return Err(format!("line {lineno}: unknown comment `{line}`"));
            }
            continue;
        }
        let (name, labels, value) =
            parse_prom_sample(line).map_err(|e| format!("line {lineno}: {e}"))?;
        if let Some(base) = name.strip_suffix("_bucket") {
            let le = labels
                .iter()
                .find(|(k, _)| k == "le")
                .ok_or_else(|| format!("line {lineno}: `{name}` without le label"))?;
            let edge = if le.1 == "+Inf" {
                f64::INFINITY
            } else {
                le.1.parse::<f64>()
                    .map_err(|_| format!("line {lineno}: bad le `{}`", le.1))?
            };
            let others: Vec<String> = labels
                .iter()
                .filter(|(k, _)| k != "le")
                .map(|(k, v)| format!("{k}={v}"))
                .collect();
            buckets
                .entry((base.to_string(), others.join(",")))
                .or_default()
                .push((edge, value));
        } else if let Some(base) = name.strip_suffix("_count") {
            let others: Vec<String> = labels.iter().map(|(k, v)| format!("{k}={v}")).collect();
            counts.insert((base.to_string(), others.join(",")), value);
        }
    }
    for ((base, labels), series) in &buckets {
        let mut prev_edge = f64::NEG_INFINITY;
        let mut prev_count = 0.0f64;
        for &(edge, count) in series {
            if edge <= prev_edge {
                return Err(format!(
                    "histogram {base}{{{labels}}}: le edges not increasing at {edge}"
                ));
            }
            if count < prev_count {
                return Err(format!(
                    "histogram {base}{{{labels}}}: cumulative count decreases at le={edge}"
                ));
            }
            prev_edge = edge;
            prev_count = count;
        }
        let last = series.last().expect("non-empty series");
        if last.0 != f64::INFINITY {
            return Err(format!("histogram {base}{{{labels}}}: missing +Inf bucket"));
        }
        if let Some(&total) = counts.get(&(base.clone(), labels.clone())) {
            if (total - last.1).abs() > 1e-9 {
                return Err(format!(
                    "histogram {base}{{{labels}}}: _count {total} != +Inf bucket {}",
                    last.1
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_edges_partition_u64() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(u64::MAX), 64);
        for i in 0..HIST_BUCKETS {
            assert_eq!(bucket_index(bucket_lower(i)), i, "lower edge of {i}");
            assert_eq!(bucket_index(bucket_upper(i)), i, "upper edge of {i}");
        }
    }

    #[test]
    fn quantiles_of_a_known_distribution() {
        let mut h = HistSnapshot::new();
        for v in [1u64, 2, 3, 100, 1000] {
            h.observe(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 1106);
        assert_eq!(h.max(), 1000);
        // rank(0.5) = 3 → bucket of 3 ([2,3]) → upper edge 3.
        assert_eq!(h.quantile(0.5), 3);
        // rank(0.99) = 5 → bucket of 1000 ([512,1023]) → clamped to max.
        assert_eq!(h.quantile(0.99), 1000);
        assert_eq!(h.quantile(1.0), 1000);
        let empty = HistSnapshot::new();
        assert_eq!(empty.quantile(0.5), 0);
    }

    #[test]
    fn exposition_validates_and_rejects_corruption() {
        validate_prometheus(&prometheus()).expect("own exposition must validate");
        let good = "# TYPE m histogram\nm_bucket{le=\"1\"} 2\nm_bucket{le=\"+Inf\"} 3\n\
                    m_sum 4\nm_count 3\n";
        validate_prometheus(good).expect("good histogram");
        for (bad, why) in [
            ("m_bucket{le=\"1\"} 2\n", "no +Inf bucket"),
            (
                "m_bucket{le=\"1\"} 5\nm_bucket{le=\"+Inf\"} 3\n",
                "decreasing cumulative counts",
            ),
            (
                "m_bucket{le=\"1\"} 1\nm_bucket{le=\"+Inf\"} 3\nm_count 4\n",
                "_count disagrees with +Inf",
            ),
            ("1bad_name 3\n", "bad metric name"),
            ("m{x=\"unterminated} 3\n", "unterminated label"),
            ("m no_value_here\n", "non-numeric value"),
            ("# TYPE m flavor\n", "bad TYPE"),
        ] {
            assert!(validate_prometheus(bad).is_err(), "accepted {why}");
        }
    }

    #[test]
    fn record_snapshot_roundtrip() {
        crate::obs::set_enabled(true);
        record(HistKind::SampleInstrs, "telemetry_unit_test", 5);
        record(HistKind::SampleInstrs, "telemetry_unit_test", 9);
        record(HistKind::SampleInstrs, "telemetry_unit_test", 1 << 20);
        let snaps = snapshots();
        let h = snaps
            .get(&(HistKind::SampleInstrs, "telemetry_unit_test".to_string()))
            .expect("series recorded");
        assert!(h.count() >= 3);
        assert!(h.max() >= 1 << 20);
        assert!(h.bucket_count(bucket_index(5)) >= 1);
        // The exposition must now carry this series' buckets.
        let text = prometheus();
        assert!(
            text.contains("ookami_sample_interval_instrs_bucket{engine=\"telemetry_unit_test\"")
        );
        validate_prometheus(&text).expect("exposition with live series validates");
    }

    #[test]
    fn span_paths_are_label_escaped() {
        crate::obs::set_enabled(true);
        {
            let _r = crate::obs::region("quote\"back\\slash");
        }
        let text = prometheus();
        assert!(text.contains("ookami_span_count_total{path=\"quote\\\"back\\\\slash\"}"));
        validate_prometheus(&text).expect("escaped span paths validate");
    }

    #[test]
    fn sampler_ring_retains_and_counts_drops() {
        let mut s = Sampler::start(Duration::from_hours(1), 3);
        for _ in 0..5 {
            s.force_sample();
        }
        let samples = s.samples();
        assert_eq!(samples.len(), 3, "ring bounded at retain");
        assert_eq!(s.dropped(), 2);
        assert_eq!(s.generation(), 5);
        let gens: Vec<u64> = samples.iter().map(|x| x.generation).collect();
        assert_eq!(gens, vec![3, 4, 5], "monotonic generations, oldest dropped");
        let doc = active_samples_json();
        let v = crate::obs::Json::parse(&doc).expect("samples JSON parses");
        assert_eq!(
            v.get("schema"),
            Some(&crate::obs::Json::Str("ookami-samples-v1".to_string()))
        );
        s.stop();
        s.stop(); // idempotent
    }
}
