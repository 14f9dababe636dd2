//! Timeline tracer properties (satellite of the observability PR): span
//! begin/end events pair and nest correctly under every pool schedule, the
//! Chrome-trace exporter's output always round-trips through the in-repo
//! `Json` parser, and chunk events account for exactly the iterations the
//! schedule dispatched.
//!
//! Spans reach the timeline only while the obs switch is on, so every test
//! here switches it on after taking the session lock.

use ookami_core::obs::{self, Json};
use ookami_core::{par_for_with, timeline, Schedule};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Mutex;

/// Timeline state (recording flag, generation, rings) is global, so tests
/// that start/stop sessions must not overlap.
static TL_LOCK: Mutex<()> = Mutex::new(());

fn sched_strategy() -> impl Strategy<Value = Schedule> {
    prop_oneof![
        Just(Schedule::Static),
        (1usize..33).prop_map(|chunk| Schedule::Dynamic { chunk }),
        Just(Schedule::Guided),
    ]
}

/// Span names spanning the JSON-escaping edge cases: quotes, backslashes,
/// control characters, and plain printables.
fn name_strategy() -> impl Strategy<Value = String> {
    let ch = prop_oneof![
        (b' '..=b'~').prop_map(|b| b as char),
        Just('"'),
        Just('\\'),
        Just('\t'),
        Just('\n'),
        Just('\u{1}'),
    ];
    proptest::collection::vec(ch, 1..24).prop_map(|cs| cs.into_iter().collect())
}

fn chunk_event_name(s: Schedule) -> &'static str {
    match s {
        Schedule::Static => "chunk_static",
        Schedule::Dynamic { .. } => "chunk_dynamic",
        Schedule::Guided => "chunk_guided",
    }
}

/// Export, parse, and return the trace's events.
fn exported_events() -> Vec<Json> {
    let doc = timeline::export_chrome_trace();
    let parsed = Json::parse(&doc).expect("exported trace must parse with Json::parse");
    match parsed.get("traceEvents") {
        Some(Json::Arr(a)) => a.clone(),
        other => panic!("traceEvents missing or not an array: {other:?}"),
    }
}

fn str_of<'a>(e: &'a Json, key: &str) -> Option<&'a str> {
    match e.get(key) {
        Some(Json::Str(s)) => Some(s.as_str()),
        _ => None,
    }
}

fn num_of(e: &Json, key: &str) -> Option<f64> {
    match e.get(key) {
        Some(Json::Num(n)) => Some(*n),
        _ => None,
    }
}

/// Walk events and assert per-thread B/E stack discipline (matching names,
/// depth never negative, everything closed). Returns spans closed.
fn assert_well_nested(events: &[Json]) -> usize {
    let mut stacks: BTreeMap<i64, Vec<String>> = BTreeMap::new();
    let mut closed = 0;
    for e in events {
        let Some(ph) = str_of(e, "ph") else { continue };
        let tid = num_of(e, "tid").unwrap_or(-1.0) as i64;
        match ph {
            "B" => stacks
                .entry(tid)
                .or_default()
                .push(str_of(e, "name").expect("B event has a name").to_string()),
            "E" => {
                let top = stacks
                    .entry(tid)
                    .or_default()
                    .pop()
                    .unwrap_or_else(|| panic!("E with empty stack on tid {tid}"));
                let name = str_of(e, "name").expect("E event has a name");
                assert_eq!(top, name, "mispaired span end on tid {tid}");
                closed += 1;
            }
            _ => {}
        }
    }
    for (tid, stack) in stacks {
        assert!(stack.is_empty(), "tid {tid} left spans open: {stack:?}");
    }
    closed
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// A traced parallel region under any schedule exports a parseable
    /// trace whose spans are well-nested per thread, and whose chunk
    /// events account for exactly `len` iterations of that schedule.
    #[test]
    fn traced_region_is_well_nested_under_every_schedule(
        len in 1usize..400,
        threads in 1usize..6,
        sched in sched_strategy(),
    ) {
        let _g = TL_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        obs::set_enabled(true);
        timeline::start(1 << 14);
        {
            let _outer = obs::region("tlp_region");
            par_for_with(threads, len, sched, |_tid, s, e| {
                std::hint::black_box(e - s);
            });
        }
        timeline::stop();

        let stats = timeline::stats();
        prop_assert_eq!(stats.events_dropped, 0, "capacity must hold the whole run");
        let events = exported_events();
        let closed = assert_well_nested(&events);
        prop_assert!(closed >= 1, "the obs::region span must appear");

        // Chunk accounting: the traced chunk lens of this schedule tile
        // the iteration space exactly.
        let want = chunk_event_name(sched);
        let traced: u64 = events
            .iter()
            .filter(|e| str_of(e, "ph") == Some("X") && str_of(e, "name") == Some(want))
            .map(|e| {
                num_of(e.get("args").expect("chunk X has args"), "len")
                    .expect("chunk args carry len") as u64
            })
            .sum();
        prop_assert_eq!(traced, len as u64, "chunk events must cover the range");
    }

    /// Arbitrary span names — including quotes, backslashes and control
    /// characters — survive the export → `Json::parse` round trip, with
    /// begin/end pairing intact under arbitrary nesting depth.
    #[test]
    fn exporter_roundtrips_arbitrary_span_names(
        names in proptest::collection::vec(name_strategy(), 1..8),
    ) {
        let _g = TL_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        obs::set_enabled(true);
        timeline::start(1 << 12);
        fn nest(names: &[String]) {
            if let Some((first, rest)) = names.split_first() {
                let _span = obs::region(first);
                nest(rest);
            }
        }
        nest(&names);
        timeline::stop();

        let events = exported_events();
        let closed = assert_well_nested(&events);
        prop_assert_eq!(closed, names.len(), "every nested span must close");
        // Every name must appear verbatim after the JSON round trip. The
        // obs layer uses '/' to build span paths but passes the leaf name
        // through to the timeline unchanged.
        for name in &names {
            prop_assert!(
                events.iter().any(|e| str_of(e, "name") == Some(name.as_str())),
                "name {:?} lost in export", name
            );
        }
    }

    /// Drop-oldest never breaks nesting: even when the ring is much
    /// smaller than the event stream, the export still parses and every
    /// thread's spans balance.
    #[test]
    fn drop_oldest_preserves_nesting(spans in 40usize..200, cap in 16usize..64) {
        let _g = TL_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        obs::set_enabled(true);
        timeline::start(cap);
        {
            let _outer = obs::region("tlp_drop_outer");
            for i in 0..spans {
                let _inner = obs::region(if i % 3 == 0 { "tlp_a" } else { "tlp_b" });
            }
        }
        timeline::stop();
        let events = exported_events();
        assert_well_nested(&events);
        let stats = timeline::stats();
        prop_assert!(
            stats.events_retained <= cap as u64 * stats.threads as u64,
            "retained {} exceeds ring capacity", stats.events_retained
        );
    }
}

/// Fork/join/barrier events from a real pooled region appear on the trace
/// and the document parses — the non-property integration smoke.
#[test]
fn pooled_region_emits_fork_join_events() {
    let _g = TL_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    // A private pool with workers guarantees the forked (non-inline) path.
    let pool = ookami_core::Pool::new(2);
    timeline::start(1 << 14);
    pool.run(4, |i| {
        std::hint::black_box(i);
    });
    timeline::stop();
    let events = exported_events();
    let has = |name: &str| {
        events
            .iter()
            .any(|e| str_of(e, "name") == Some(name) && str_of(e, "ph") == Some("i"))
    };
    assert!(has("fork"), "fork instant missing");
    assert!(has("join"), "join instant missing");
}
