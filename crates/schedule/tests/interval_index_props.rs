//! Property tests for the bucketed interval index and its probe-time
//! overlays: after arbitrary probe/commit/undo sequences, the overlay
//! machinery must agree with naive clone-and-insert recomputation, and the
//! committed state must match a from-scratch rebuild.

use ltf_schedule::intervals::earliest_common_fit;
use ltf_schedule::{BusyTimeline, IntervalIndex, IntervalSet, OverlayDelta, OverlayView, EPS};
use proptest::prelude::*;

const BUCKETS: usize = 4;

/// One probe: a burst of reservations on one bucket, optionally committed.
#[derive(Debug, Clone)]
struct ProbeOp {
    bucket: usize,
    ready: f64,
    durs: Vec<f64>,
    commit: bool,
}

fn probe_ops() -> impl Strategy<Value = Vec<ProbeOp>> {
    prop::collection::vec(
        (
            0usize..BUCKETS,
            0.0f64..40.0,
            prop::collection::vec(0.1f64..4.0, 1..4),
            any::<bool>(),
        )
            .prop_map(|(bucket, ready, durs, commit)| ProbeOp {
                bucket,
                ready,
                durs,
                commit,
            }),
        1..40,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The overlay evaluation of a probe (base bucket + growing delta)
    /// lands every reservation exactly where the naive clone-and-insert
    /// evaluation does, commits mutate both representations identically,
    /// and abandoned probes leave no trace.
    #[test]
    fn overlay_probe_equals_clone_probe(ops in probe_ops()) {
        let mut idx = IntervalIndex::new(BUCKETS);
        let mut naive: Vec<IntervalSet> = vec![IntervalSet::new(); BUCKETS];

        for op in ops {
            // Naive: clone the committed set, insert as we go.
            let mut clone = naive[op.bucket].clone();
            let mut naive_starts = Vec::new();
            let mut ready = op.ready;
            for &dur in &op.durs {
                let t = clone.next_fit(ready, dur);
                clone.insert(t, t + dur);
                naive_starts.push(t);
                ready = t; // later messages never start before earlier ones
            }

            // Overlay: same queries against base + delta, no clone.
            let mut delta = OverlayDelta::new();
            let mut overlay_starts = Vec::new();
            let mut ready = op.ready;
            for &dur in &op.durs {
                let t = idx.overlay(op.bucket, &delta).next_fit(ready, dur);
                delta.insert(t, t + dur);
                overlay_starts.push(t);
                ready = t;
            }
            prop_assert_eq!(&overlay_starts, &naive_starts);

            if op.commit {
                for (&t, &dur) in overlay_starts.iter().zip(&op.durs) {
                    idx.insert(op.bucket, t, t + dur);
                    naive[op.bucket].insert(t, t + dur);
                }
            }
            // An abandoned probe needs no cleanup: the delta simply drops.
        }

        for (u, expect) in naive.iter().enumerate() {
            prop_assert_eq!(idx.bucket(u).intervals(), expect.intervals());
        }
    }

    /// Committing a probe's reservations and then removing them in
    /// reverse order restores each bucket to its exact prior contents
    /// (the undo-log invariant). Earlier committed groups stay in place,
    /// so undo is exercised against populated buckets.
    #[test]
    fn remove_in_reverse_restores_state(ops in probe_ops()) {
        let mut idx = IntervalIndex::new(BUCKETS);

        for op in &ops {
            let snapshot: Vec<Vec<(f64, f64)>> =
                (0..BUCKETS).map(|u| idx.bucket(u).intervals().to_vec()).collect();
            let mut delta = OverlayDelta::new();
            let mut ready = op.ready;
            let mut group = Vec::new();
            for &dur in &op.durs {
                let t = idx.overlay(op.bucket, &delta).next_fit(ready, dur);
                delta.insert(t, t + dur);
                group.push((t, t + dur));
                ready = t;
            }
            for &(s, e) in &group {
                idx.insert(op.bucket, s, e);
            }
            if op.commit {
                continue; // this group stays committed for later ops
            }
            // Speculative group: unwind it and verify exact restoration.
            for &(s, e) in group.iter().rev() {
                idx.remove(op.bucket, s, e);
            }
            for (u, expect) in snapshot.iter().enumerate() {
                prop_assert_eq!(idx.bucket(u).intervals(), &expect[..]);
            }
        }
    }

    /// Cross-timeline co-reservation: the generic common fit over two
    /// overlays equals the common fit over the two materialized sets.
    #[test]
    fn overlay_common_fit_equals_materialized(
        base_a in prop::collection::vec((0.0f64..30.0, 0.2f64..2.0), 0..8),
        base_b in prop::collection::vec((0.0f64..30.0, 0.2f64..2.0), 0..8),
        add_a in prop::collection::vec((0.0f64..30.0, 0.2f64..2.0), 0..4),
        add_b in prop::collection::vec((0.0f64..30.0, 0.2f64..2.0), 0..4),
        ready in 0.0f64..35.0,
        dur in 0.1f64..3.0,
    ) {
        let fill = |reqs: &[(f64, f64)]| {
            let mut s = IntervalSet::new();
            for &(start, len) in reqs {
                let t = s.next_fit(start, len);
                s.insert(t, t + len);
            }
            s
        };
        let a = fill(&base_a);
        let b = fill(&base_b);
        let mut da = OverlayDelta::new();
        let mut db = OverlayDelta::new();
        let mut ma = a.clone();
        let mut mb = b.clone();
        for &(start, len) in &add_a {
            let t = ma.next_fit(start, len);
            ma.insert(t, t + len);
            da.insert(t, t + len);
        }
        for &(start, len) in &add_b {
            let t = mb.next_fit(start, len);
            mb.insert(t, t + len);
            db.insert(t, t + len);
        }

        let idx_a = {
            let mut i = IntervalIndex::new(1);
            for &(s, e) in a.intervals() {
                i.insert(0, s, e);
            }
            i
        };
        let va = idx_a.overlay(0, &da);
        let vb = ltf_schedule::OverlayView::new(&b, db.intervals());
        let got = earliest_common_fit(&va, &vb, ready, dur);
        let want = earliest_common_fit(&ma, &mb, ready, dur);
        prop_assert_eq!(got, want);
        // And the result is genuinely free in both merged timelines.
        prop_assert!(ma.is_free(got, got + dur));
        prop_assert!(mb.is_free(got, got + dur));
        prop_assert!(got + 1e-12 >= ready);
        // Overlay view answers plain fits identically too.
        prop_assert_eq!(
            BusyTimeline::next_fit(&va, ready, dur),
            ma.next_fit(ready, dur)
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `fit_lower_bound(ready)` never exceeds a fit from any later ready
    /// time, on timelines whose gaps sit within `EPS` of the message
    /// length (where `next_fit` itself is not monotone). On the same
    /// timelines, as plain sets and as overlays, `next_fit` is idempotent
    /// and moves its start by 0 or by more than `EPS`: the two facts that
    /// make `common_fit`'s stop rule a fixpoint of every timeline.
    #[test]
    fn fit_lower_bound_is_below_every_later_fit(
        reqs in prop::collection::vec((0.0f64..30.0, 0.2f64..2.0), 0..10),
        ready in 0.0f64..35.0,
        later in prop::collection::vec(0.0f64..3.0, 1..6),
        dur in 0.1f64..3.0,
        jitter in -3e-6f64..3e-6,
    ) {
        let mut s = IntervalSet::new();
        for &(start, len) in &reqs {
            let t = s.next_fit(start, len);
            s.insert(t, t + len);
        }
        let ends: Vec<f64> = s.intervals().iter().map(|&(_, e)| e).collect();
        let bound = s.fit_lower_bound(ready, dur);
        prop_assert!(bound >= ready);
        // Later ready times, including ones just before each busy end.
        let candidates = later
            .iter()
            .map(|&d| ready + d)
            .chain(ends.iter().map(|&e| e + jitter).filter(|&r| r >= ready));
        let (base, delta): (Vec<_>, Vec<_>) =
            s.intervals().iter().enumerate().partition(|(i, _)| i % 2 == 0);
        let mut base_set = IntervalSet::new();
        for (_, &(a, b)) in base {
            base_set.insert(a, b);
        }
        let delta: Vec<(f64, f64)> = delta.into_iter().map(|(_, &iv)| iv).collect();
        let overlay = OverlayView::new(&base_set, &delta);
        for r in candidates.chain([ready]) {
            prop_assert!(bound <= s.next_fit(r, dur), "ready {} r {}", ready, r);
            for tl in [&s as &dyn BusyTimeline, &overlay] {
                let t = tl.next_fit(r, dur);
                prop_assert_eq!(tl.next_fit(t, dur), t, "not idempotent from {}", r);
                prop_assert!(t == r || t - r > EPS, "moved {} by {}", r, t - r);
            }
        }
    }
}
