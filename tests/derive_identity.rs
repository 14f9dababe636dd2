//! Derived-metrics identity across execution strategies (observability PR
//! satellite): the roofline / bottleneck numbers `obs::derive` computes
//! must be **bit-identical** whether the counter snapshot came from the
//! per-op SVE interpreter or the record-once/replay-many trace executor.
//!
//! This is the user-visible face of the counter-identity invariant pinned
//! in `crates/sve/src/counters.rs`: if both executors retire the same
//! `(class, instrs, lanes, uops)` stream, every metric derived from those
//! counters — GFLOP/s, arithmetic intensity, lane utilization, port
//! shares, roofline placement, attributed bottleneck — agrees to the last
//! mantissa bit for the same wall-clock window.
//!
//! The test switches the obs layer on, so the counters are real, and also
//! asserts the workload actually retired SVE instructions.

use ookami_core::obs::{self, derive::derive, Counter, Snapshot};
use ookami_uarch::machines;
use ookami_vecmath::exp::{exp_slice, exp_slice_interp};
use ookami_vecmath::ExpVariant;

/// Counter delta of running `f` with the process-global obs registry.
fn counted(f: impl FnOnce()) -> Snapshot {
    let before = obs::snapshot();
    f();
    obs::snapshot().since(&before)
}

/// Every f64 the table renders from, flattened for bitwise comparison.
fn bits(d: &obs::derive::Derived) -> Vec<u64> {
    let mut v = vec![
        d.model_gflops.to_bits(),
        d.model_gbs.to_bits(),
        d.arithmetic_intensity.to_bits(),
        d.lane_utilization.to_bits(),
        d.fexpa_per_s.to_bits(),
        d.fexpa_share_fla.to_bits(),
        d.barrier_share.to_bits(),
        d.indexed_share.to_bits(),
        d.bottleneck_score.to_bits(),
        d.roofline.peak_gflops.to_bits(),
        d.roofline.mem_bw_gbs.to_bits(),
        d.roofline.ridge_ai.to_bits(),
        d.roofline.attainable_gflops.to_bits(),
        d.roofline.achieved_frac.to_bits(),
    ];
    v.extend(d.port_share.iter().map(|s| s.to_bits()));
    v
}

#[test]
fn derived_metrics_bit_identical_across_executors() {
    obs::set_enabled(true);
    let vl = 8;
    let n = 4_096;
    let xs: Vec<f64> = (0..n)
        .map(|i| -700.0 + 1400.0 * i as f64 / n as f64)
        .collect();

    let mut out_interp = Vec::new();
    let snap_interp = counted(|| {
        out_interp = exp_slice_interp(vl, &xs, ExpVariant::FexpaEstrinCorrected);
    });
    let mut out_replay = Vec::new();
    let snap_replay = counted(|| {
        out_replay = exp_slice(vl, &xs, ExpVariant::FexpaEstrinCorrected);
    });

    // The numerical results agree bitwise (trace replay re-runs the same
    // op stream), and so do the raw counter deltas.
    assert_eq!(out_interp.len(), out_replay.len());
    for (a, b) in out_interp.iter().zip(&out_replay) {
        assert_eq!(a.to_bits(), b.to_bits(), "executor outputs diverge");
    }
    for (name, a) in snap_interp.nonzero() {
        let b = Counter::from_name(name).map(|c| snap_replay.get(c));
        assert_eq!(Some(a), b, "counter {name} differs between executors");
    }
    for (name, b) in snap_replay.nonzero() {
        let a = Counter::from_name(name).map(|c| snap_interp.get(c));
        assert_eq!(a, Some(b), "counter {name} only fires under replay");
    }

    // Same counters + same wall window ⇒ bit-identical derived metrics,
    // across thread counts (the roofline ceilings scale with threads).
    let m = machines::a64fx();
    for threads in [1usize, 4, 48] {
        let wall = 0.25; // fixed synthetic window: timing noise excluded
        let d_interp = derive(&snap_interp, wall, m, threads);
        let d_replay = derive(&snap_replay, wall, m, threads);
        assert_eq!(
            bits(&d_interp),
            bits(&d_replay),
            "derived metrics differ at {threads} threads"
        );
        assert_eq!(d_interp.bottleneck, d_replay.bottleneck);
    }

    assert!(
        snap_interp.get(Counter::SveInstrs) > 0,
        "obs must observe real SVE retirement"
    );
    assert!(
        snap_interp.get(Counter::FexpaIssues) >= (n / vl) as u64,
        "FEXPA exp must issue one FEXPA per vector"
    );
}
