//! The obs run-time switch's off state. This file is a test binary of its
//! own with a single test, so nothing else in the process can flip the
//! process-wide switch underneath it.
//!
//! With the switch off, counters, spans, histograms and pool accounting
//! record nothing, and every export (Prometheus, Chrome trace, span tree,
//! BENCH report) is empty but well-formed. A region that straddles the
//! switch being turned on leaves no trace, and a trace compiled while the
//! switch was off counts exactly like the replayer once it is on.

use ookami::core::obs::{self, Counter, Json};
use ookami::core::telemetry::{self, spantree, HistKind};
use ookami::core::{par_for_with, timeline, Pool, Schedule};
use ookami::vecmath::{exp_trace, ExpVariant};

#[test]
fn switched_off_records_nothing_and_exports_stay_well_formed() {
    assert!(!obs::enabled(), "the switch starts off");

    // --- Off: nothing records ---
    obs::add(Counter::SveInstrs, 1_000_000);
    {
        let _r = obs::region("off_region");
    }
    telemetry::record(HistKind::SampleInstrs, "off", 7);
    let pool = Pool::new(2);
    pool.run(4, |i| {
        std::hint::black_box(i);
    });
    par_for_with(2, 64, Schedule::Dynamic { chunk: 8 }, |_, _, _| {});
    let xs: Vec<f64> = (0..4_099).map(|i| (i as f64 - 2_000.0) * 0.01).collect();
    let t = exp_trace(8, ExpVariant::FexpaEstrinCorrected);
    let ct = t.compile();
    assert!(
        ct.is_native(),
        "the headline exp must take the compiled path"
    );
    std::hint::black_box(ct.map(&xs));
    std::hint::black_box(t.replay_map(&xs));
    assert!(obs::snapshot().is_zero(), "{:?}", obs::snapshot().nonzero());
    assert!(obs::spans().is_empty());
    assert!(telemetry::snapshots().is_empty());

    // --- Off: every export is empty but well-formed ---
    telemetry::validate_prometheus(&telemetry::prometheus()).expect("Prometheus validates");
    timeline::start(1 << 10);
    {
        let _r = obs::region("off_traced");
    }
    pool.run(2, |i| {
        std::hint::black_box(i);
    });
    timeline::stop();
    let doc = timeline::export_chrome_trace();
    let trace = Json::parse(&doc).expect("Chrome trace parses");
    let Some(Json::Arr(events)) = trace.get("traceEvents") else {
        panic!("traceEvents missing: {doc}");
    };
    assert!(
        !events
            .iter()
            .any(|e| e.get("name") == Some(&Json::Str("off_traced".to_string()))),
        "a span opened with the switch off reached the timeline"
    );
    let tree = spantree::profile();
    assert!(tree.node("off_traced").is_none());
    spantree::parse_collapsed(&tree.collapsed()).expect("collapsed stacks parse");
    Json::parse(&tree.to_json()).expect("span-tree JSON parses");
    std::hint::black_box(tree.render_table());
    let mut report = obs::BenchReport::new("obs_switch_off", "test");
    report.attach_obs(&obs::snapshot());
    let json = report.to_json();
    obs::validate_bench_json(&json).expect("BENCH report validates");
    assert!(json.contains("\"obs_enabled\": false"));

    // --- A region straddling the switch leaves no span and no path ---
    let straddling = obs::region("straddle");
    obs::set_enabled(true);
    drop(straddling);
    {
        let _r = obs::region("after");
    }
    let paths: Vec<String> = obs::spans().into_iter().map(|s| s.path).collect();
    assert_eq!(paths, ["after"]);

    // --- The trace compiled while off counts exactly once switched on ---
    let counted = |f: &dyn Fn()| {
        let before = obs::thread_snapshot();
        f();
        obs::thread_snapshot().since(&before)
    };
    let replay = counted(&|| {
        std::hint::black_box(t.replay_map(&xs));
    });
    let compiled = counted(&|| {
        std::hint::black_box(ct.map(&xs));
    });
    assert!(replay.get(Counter::SveInstrs) > 0);
    assert_eq!(replay.nonzero(), compiled.nonzero());
}
