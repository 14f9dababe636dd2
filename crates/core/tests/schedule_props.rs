//! Schedule correctness properties for the worker pool: every schedule
//! must partition the iteration space exactly — each index visited once,
//! no overlap, no gap — for arbitrary lengths, thread counts, and chunk
//! sizes, and (with the obs switch on) the chunk/iteration counters must
//! account for exactly the work dispatched.

use ookami_core::obs::{self, Counter};
use ookami_core::{par_for_with, par_reduce_with, Schedule};
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// The obs counter assertions read *global* deltas (pool workers count on
/// their own threads), so tests driving the pool must not overlap.
static POOL_LOCK: Mutex<()> = Mutex::new(());

fn sched_strategy() -> impl Strategy<Value = Schedule> {
    prop_oneof![
        Just(Schedule::Static),
        (1usize..33).prop_map(|chunk| Schedule::Dynamic { chunk }),
        Just(Schedule::Guided),
    ]
}

/// The per-schedule (chunks dispatched, iterations dispatched) counters.
fn sched_counters(s: Schedule) -> (Counter, Counter) {
    match s {
        Schedule::Static => (Counter::ChunksStatic, Counter::ItersStatic),
        Schedule::Dynamic { .. } => (Counter::ChunksDynamic, Counter::ItersDynamic),
        Schedule::Guided => (Counter::ChunksGuided, Counter::ItersGuided),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Exact-once coverage: for arbitrary `(len, threads, schedule)` the
    /// chunks handed to the body callback tile `0..len` with no overlap
    /// and no gap, and the obs iteration counters sum to exactly `len`.
    #[test]
    fn par_for_visits_every_index_exactly_once(
        len in 0usize..400,
        threads in 1usize..6,
        sched in sched_strategy(),
    ) {
        let _g = POOL_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        obs::set_enabled(true);
        let visits: Vec<AtomicUsize> = (0..len).map(|_| AtomicUsize::new(0)).collect();
        let before = obs::snapshot();
        par_for_with(threads, len, sched, |_tid, s, e| {
            for slot in &visits[s..e] {
                slot.fetch_add(1, Ordering::Relaxed);
            }
        });
        for (i, v) in visits.iter().enumerate() {
            let n = v.load(Ordering::Relaxed);
            prop_assert_eq!(n, 1, "index {} visited {} times", i, n);
        }
        let d = obs::snapshot().since(&before);
        let (chunks, iters) = sched_counters(sched);
        prop_assert_eq!(d.get(iters), len as u64, "iteration counter mismatch");
        if len > 0 {
            let c = d.get(chunks);
            prop_assert!(
                (1..=len as u64).contains(&c),
                "chunk counter {} out of range for len {}", c, len
            );
        }
        // Work must land on the counters of the schedule that ran it,
        // not leak onto the other two.
        for other in [Schedule::Static, Schedule::Dynamic { chunk: 1 }, Schedule::Guided] {
            let (oc, oi) = sched_counters(other);
            if oi != sched_counters(sched).1 {
                prop_assert_eq!(d.get(oi), 0);
                prop_assert_eq!(d.get(oc), 0);
            }
        }
    }

    /// Reductions see the same exact partition: summing each chunk's
    /// indices yields `len * (len - 1) / 2` under every schedule, and the
    /// obs iteration counters again sum to `len`.
    #[test]
    fn par_reduce_covers_every_index_exactly_once(
        len in 0usize..400,
        threads in 1usize..6,
        sched in sched_strategy(),
    ) {
        let _g = POOL_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        obs::set_enabled(true);
        let before = obs::snapshot();
        let total = par_reduce_with(
            threads,
            len,
            sched,
            0u64,
            |s, e, acc| acc + (s..e).map(|i| i as u64).sum::<u64>(),
            |a, b| a + b,
        );
        prop_assert_eq!(total, (len as u64 * len.saturating_sub(1) as u64) / 2);
        let d = obs::snapshot().since(&before);
        let (_, iters) = sched_counters(sched);
        prop_assert_eq!(d.get(iters), len as u64);
    }
}

/// Deterministic spot-check of the dynamic chunk accounting: with the
/// pool forced past the inline path, `Dynamic { chunk }` dispatches
/// exactly `ceil(len / chunk)` chunks.
#[test]
fn dynamic_chunk_count_is_exact() {
    obs::set_enabled(true);
    let _g = POOL_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    for (len, chunk) in [(96usize, 8usize), (97, 8), (100, 7), (5, 32)] {
        let before = obs::snapshot();
        par_for_with(2, len, Schedule::Dynamic { chunk }, |_tid, _s, _e| {});
        let d = obs::snapshot().since(&before);
        assert_eq!(d.get(Counter::ItersDynamic), len as u64);
        assert_eq!(
            d.get(Counter::ChunksDynamic),
            len.div_ceil(chunk) as u64,
            "len={len} chunk={chunk}"
        );
    }
}
