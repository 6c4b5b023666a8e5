//! Property-based tests on intervals, crash sets, and stage analyses.

use ltf_platform::ProcId;
use ltf_schedule::failures::{all_crash_sets, sample_crash_set};
use ltf_schedule::intervals::{common_fit, earliest_common_fit};
use ltf_schedule::{BusyTimeline, CrashSet, IntervalSet, OverlayView};
use proptest::prelude::*;

/// A timeline holding each `(ready, len)` request at its first fit.
fn fill(reqs: &[(f64, f64)]) -> IntervalSet {
    let mut s = IntervalSet::new();
    for &(start, len) in reqs {
        let t = s.next_fit(start, len);
        s.insert(t, t + len);
    }
    s
}

/// `s` split into a base of its even-indexed intervals and a delta of the
/// odd-indexed ones: an overlay of the same busy time.
fn split(s: &IntervalSet) -> (IntervalSet, Vec<(f64, f64)>) {
    let (mut base, mut delta) = (IntervalSet::new(), Vec::new());
    for (i, &(a, b)) in s.intervals().iter().enumerate() {
        if i % 2 == 0 {
            base.insert(a, b);
        } else {
            delta.push((a, b));
        }
    }
    (base, delta)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn interval_insertions_never_overlap(
        reqs in prop::collection::vec((0.0f64..50.0, 0.1f64..5.0), 1..40)
    ) {
        let mut s = IntervalSet::new();
        let mut placed = Vec::new();
        for (ready, dur) in reqs {
            let t = s.next_fit(ready, dur);
            prop_assert!(t + 1e-12 >= ready);
            prop_assert!(s.is_free(t, t + dur));
            s.insert(t, t + dur);
            placed.push((t, t + dur));
        }
        // Pairwise disjoint.
        placed.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        for w in placed.windows(2) {
            prop_assert!(w[0].1 <= w[1].0 + 1e-6);
        }
        //

        // Total busy time equals the sum of durations.
        let total: f64 = placed.iter().map(|(a, b)| b - a).sum();
        prop_assert!((s.total() - total).abs() < 1e-6);
    }

    #[test]
    fn next_fit_returns_first_gap(
        busy in prop::collection::vec((0.0f64..40.0, 0.2f64..3.0), 0..12),
        ready in 0.0f64..45.0,
        dur in 0.1f64..4.0,
    ) {
        let mut s = IntervalSet::new();
        for (start, len) in busy {
            let t = s.next_fit(start, len);
            s.insert(t, t + len);
        }
        let t = s.next_fit(ready, dur);
        prop_assert!(s.is_free(t, t + dur));
        // Minimality on a grid: no earlier admissible start at 0.05
        // resolution (up to the EPS slack used by the set).
        let mut probe = ready;
        while probe < t - 1e-6 {
            prop_assert!(!s.is_free(probe, probe + dur + 1e-5));
            probe += 0.05;
        }
    }

    /// The fit of a message holding 2–5 channels, each a plain set or an
    /// overlay of the same busy time: at or after `ready`, free in every
    /// timeline, a fixpoint of one more full pass, and at two timelines
    /// the two-timeline fit itself.
    #[test]
    fn common_fit_is_free_in_both(
        busy in prop::collection::vec(
            (prop::collection::vec((0.0f64..30.0, 0.2f64..2.0), 0..10), any::<bool>()),
            2..6,
        ),
        ready in 0.0f64..35.0,
        dur in 0.1f64..3.0,
    ) {
        let sets: Vec<IntervalSet> = busy.iter().map(|(reqs, _)| fill(reqs)).collect();
        let parts: Vec<_> = sets.iter().map(split).collect();
        let views: Vec<OverlayView> =
            parts.iter().map(|(base, delta)| OverlayView::new(base, delta)).collect();
        let timelines: Vec<&dyn BusyTimeline> = busy
            .iter()
            .enumerate()
            .map(|(i, (_, overlay))| {
                if *overlay {
                    &views[i] as &dyn BusyTimeline
                } else {
                    &sets[i]
                }
            })
            .collect();
        let n = timelines.len();
        let t = common_fit(n, |i| timelines[i], ready, dur);
        prop_assert!(t + 1e-12 >= ready);
        for s in &sets {
            prop_assert!(s.is_free(t, t + dur));
        }
        let again = timelines.iter().fold(t, |t, tl| tl.next_fit(t, dur));
        prop_assert_eq!(again, t);
        if n == 2 {
            prop_assert_eq!(t, earliest_common_fit(timelines[0], timelines[1], ready, dur));
        }
    }

    #[test]
    fn crash_set_roundtrip(m in 1usize..40, picks in prop::collection::vec(0u16..40, 0..12)) {
        let procs: Vec<ProcId> = picks.into_iter().filter(|p| (*p as usize) < m).map(ProcId).collect();
        let cs = CrashSet::from_procs(&procs, m);
        let mut expect: Vec<ProcId> = procs.clone();
        expect.sort();
        expect.dedup();
        prop_assert_eq!(cs.procs(), expect.clone());
        prop_assert_eq!(cs.len(), expect.len());
        for u in 0..m as u16 {
            prop_assert_eq!(cs.contains(ProcId(u)), expect.contains(&ProcId(u)));
        }
    }

    #[test]
    fn sampled_crash_sets_have_exact_size(m in 1usize..30, seed in any::<u64>()) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let c = rng.gen_range(0..=m);
        let cs = sample_crash_set(m, c, &mut |b| rng.gen_range(0..b));
        prop_assert_eq!(cs.len(), c);
    }

    #[test]
    fn crash_enumeration_counts(m in 1usize..10, c in 0usize..4) {
        let count = all_crash_sets(m, c).count();
        // C(m, c)
        let expect = if c > m { 0 } else {
            (0..c).fold(1usize, |acc, i| acc * (m - i) / (i + 1))
        };
        prop_assert_eq!(count, expect);
    }
}
