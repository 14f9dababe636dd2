//! Telemetry-layer properties (satellites of the live-telemetry PR):
//! histogram snapshots must merge like the multiset union they claim to
//! be, quantiles must stay inside the bucket that holds the true rank
//! statistic, span-tree folding must preserve the timing algebra
//! (inclusive ≥ self, children nest inside parents) for *arbitrary*
//! well-nested timelines, and the collapsed-stack export must round-trip
//! through the in-repo parser losslessly.
//!
//! Everything here is pure-data — [`HistSnapshot`] arithmetic and the
//! [`spantree::fold`] function take plain slices — so the whole file runs
//! identically whatever the obs switch says.

use ookami_core::telemetry::{self, spantree, HistSnapshot};
use ookami_core::timeline::{EventPayload, TimelineEvent};
use proptest::prelude::*;

fn hist_of(values: &[u64]) -> HistSnapshot {
    let mut h = HistSnapshot::new();
    for &v in values {
        h.observe(v);
    }
    h
}

/// One thread's well-nested span timeline: a push/pop tape rendered into
/// begin/end events with strictly increasing timestamps. Pops on an empty
/// stack are dropped (the tape stays well-nested by construction); spans
/// still open when the tape ends are left open — `fold` must close them
/// at the thread's last timestamp.
fn render_tape(tid: u64, tape: &[(bool, u8)], ts: &mut u64) -> Vec<TimelineEvent> {
    let mut events = Vec::new();
    let mut depth = 0u32;
    for &(push, name) in tape {
        *ts += 1 + u64::from(name); // uneven, strictly increasing gaps
        if push {
            depth += 1;
            events.push(TimelineEvent {
                tid,
                ts_ns: *ts,
                name: format!("s{}", name % 5),
                payload: EventPayload::SpanBegin,
            });
        } else if depth > 0 {
            depth -= 1;
            events.push(TimelineEvent {
                tid,
                ts_ns: *ts,
                name: String::new(), // fold pairs ends by stack, not name
                payload: EventPayload::SpanEnd,
            });
        }
    }
    events
}

/// Walk a folded tree depth-first, checking the timing algebra at every
/// node and returning (nodes visited, total close count).
fn check_node(node: &spantree::SpanNode) -> (usize, u64) {
    assert!(
        node.incl_ns >= node.self_ns,
        "inclusive {} < self {} at `{}`",
        node.incl_ns,
        node.self_ns,
        node.name
    );
    let child_sum: u64 = node.children.values().map(|c| c.incl_ns).sum();
    assert!(
        child_sum <= node.incl_ns,
        "children sum {} exceeds parent inclusive {} at `{}`",
        child_sum,
        node.incl_ns,
        node.name
    );
    let mut visited = 1;
    let mut closes = node.count;
    for c in node.children.values() {
        let (v, n) = check_node(c);
        visited += v;
        closes += n;
    }
    (visited, closes)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Merging histogram snapshots is the multiset union: commutative,
    /// associative, and equal to observing the concatenated values — per
    /// bucket, not just in aggregate.
    #[test]
    fn hist_merge_is_commutative_associative_and_matches_concat(
        a in prop::collection::vec(any::<u64>(), 0..40),
        b in prop::collection::vec(any::<u64>(), 0..40),
        c in prop::collection::vec(any::<u64>(), 0..40),
    ) {
        let (ha, hb, hc) = (hist_of(&a), hist_of(&b), hist_of(&c));

        let mut ab = ha.clone();
        ab.merge(&hb);
        let mut ba = hb.clone();
        ba.merge(&ha);
        prop_assert_eq!(&ab, &ba, "merge must be commutative");

        let mut ab_c = ab.clone();
        ab_c.merge(&hc);
        let mut bc = hb.clone();
        bc.merge(&hc);
        let mut a_bc = ha.clone();
        a_bc.merge(&bc);
        prop_assert_eq!(&ab_c, &a_bc, "merge must be associative");

        let concat: Vec<u64> = a.iter().chain(&b).chain(&c).copied().collect();
        prop_assert_eq!(&ab_c, &hist_of(&concat), "merge must equal concat");
        prop_assert_eq!(ab_c.count(), concat.len() as u64);
    }

    /// A quantile estimate never leaves the bucket holding the true rank
    /// statistic: for rank r = ceil(q·n), the exact r-th smallest value
    /// and the estimate share a bucket, so the estimate is bounded by
    /// that bucket's edges — and never exceeds the exact maximum.
    #[test]
    fn quantile_stays_inside_the_rank_bucket(
        mut values in prop::collection::vec(any::<u64>(), 1..80),
        q in 0.01f64..1.0,
    ) {
        let h = hist_of(&values);
        values.sort_unstable();
        let est = h.quantile(q);
        let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
        let exact = values[rank - 1];
        let b = telemetry::bucket_index(exact);
        prop_assert!(
            (telemetry::bucket_lower(b)..=telemetry::bucket_upper(b)).contains(&est),
            "q={q}: estimate {est} outside bucket {b} of exact rank value {exact}"
        );
        prop_assert!(est <= h.max(), "estimate {est} above observed max {}", h.max());
        prop_assert_eq!(h.quantile(1.0), h.max(), "p100 is the exact maximum");
        prop_assert_eq!(h.max(), *values.last().unwrap());
    }

    /// Folding an arbitrary well-nested multi-thread timeline preserves
    /// the timing algebra everywhere: inclusive ≥ self at every node,
    /// children sum inside their parent, and every span opened — whether
    /// explicitly closed or left open for the fold to finish — closes
    /// exactly once.
    #[test]
    fn fold_preserves_timing_algebra_on_well_nested_timelines(
        tapes in prop::collection::vec(
            prop::collection::vec((any::<bool>(), any::<u8>()), 0..60),
            1..4,
        ),
    ) {
        let mut ts = 0u64;
        let mut events = Vec::new();
        let mut expected_closes = 0u64;
        for (tid, tape) in tapes.iter().enumerate() {
            let rendered = render_tape(tid as u64, tape, &mut ts);
            expected_closes += rendered
                .iter()
                .filter(|e| e.payload == EventPayload::SpanBegin)
                .count() as u64;
            events.extend(rendered);
        }
        let tree = spantree::fold(&events, &[]);
        let mut closes = 0u64;
        for root in tree.roots.values() {
            let (_, n) = check_node(root);
            closes += n;
        }
        prop_assert_eq!(closes, expected_closes, "every begin closes exactly once");
        prop_assert_eq!(tree.total_count(), expected_closes);
    }

    /// The collapsed-stack export round-trips: every emitted line parses,
    /// every parsed path maps back to a tree node, and the values are the
    /// node's self time. (Span names here avoid the sanitized characters;
    /// a unit test in `spantree` pins the `;`/space rewriting itself.)
    #[test]
    fn collapsed_export_round_trips_through_the_parser(
        tapes in prop::collection::vec(
            prop::collection::vec((any::<bool>(), any::<u8>()), 0..60),
            1..4,
        ),
    ) {
        let mut ts = 0u64;
        let mut events = Vec::new();
        for (tid, tape) in tapes.iter().enumerate() {
            events.extend(render_tape(tid as u64, tape, &mut ts));
        }
        let tree = spantree::fold(&events, &[]);
        let text = tree.collapsed();
        let parsed = spantree::parse_collapsed(&text)
            .expect("own collapsed export must parse");
        for (stack, self_ns) in &parsed {
            let path = stack.replace(';', "/");
            let node = tree
                .node(&path)
                .unwrap_or_else(|| panic!("parsed stack `{stack}` not in the tree"));
            prop_assert_eq!(
                *self_ns, node.self_ns,
                "self time mismatch for `{}`", stack
            );
        }
        let emitted: u64 = parsed.values().sum();
        let total_self: u64 = {
            fn sum_self(n: &spantree::SpanNode) -> u64 {
                n.self_ns + n.children.values().map(sum_self).sum::<u64>()
            }
            tree.roots.values().map(sum_self).sum()
        };
        prop_assert_eq!(emitted, total_self, "export must account for all self time");
    }
}
