//! Busy-interval sets with earliest-gap insertion.
//!
//! Used to serialize each processor's compute resource and each channel a
//! message holds (a send port, a receive port, a route link; see
//! `Platform::channels`). Intervals are half-open `[start, end)`;
//! zero-length intervals are ignored. Insertion keeps the set sorted and
//! non-overlapping.
//!
//! Three layers serve the placement hot path:
//!
//! * [`IntervalSet`] — one sorted resource timeline with binary-searched
//!   gap queries ([`IntervalSet::next_fit`]) and exact removal
//!   ([`IntervalSet::remove`], the undo-log primitive).
//! * [`OverlayView`] — a *probe-time* view of a base set plus a small
//!   sorted delta of tentative reservations. Candidate evaluation works
//!   against the overlay without ever cloning the base set; committing is
//!   a plain insert, abandoning the probe is free.
//! * [`IntervalIndex`] — the bucket index: one [`IntervalSet`] per
//!   processor or per channel, addressed by index, so the engine keeps all
//!   CPU timelines in one structure and all channel timelines in another,
//!   with overlay construction and undo-removal per bucket.

use crate::EPS;

/// The start of the first gap of the sorted, non-overlapping interval
/// slice `ivs`, walking forward from `ready`, that holds `[τ, τ + dur)`.
/// The result fits and is at least `ready`. It is the least such `τ`,
/// except that a start within `2·EPS` of a busy interval's end can be
/// passed over (see [`IntervalSet::fit_lower_bound`]).
///
/// Shared by [`IntervalSet::next_fit`] and [`OverlayView`]'s delta scan so
/// both apply bit-identical `EPS` boundary rules.
fn next_fit_in(ivs: &[(f64, f64)], ready: f64, dur: f64) -> f64 {
    let mut t = ready;
    let mut i = ivs.partition_point(|&(_, e)| e <= t + EPS);
    loop {
        match ivs.get(i) {
            Some(&(s, e)) => {
                if s + EPS >= t + dur {
                    return t;
                }
                t = t.max(e);
                i += 1;
            }
            None => return t,
        }
    }
}

/// Insert `[start, end)` into a sorted, non-overlapping interval vector.
/// Shared by [`IntervalSet::insert`] and [`OverlayDelta::insert`] so both
/// enforce the same invariant with the same (hard) assert policy.
///
/// # Panics
/// If the interval overlaps an existing one by more than `EPS` — callers
/// derive the position from a prior fit query, so an overlap means the
/// fit query and the insertion disagree.
fn insert_sorted(ivs: &mut Vec<(f64, f64)>, start: f64, end: f64) {
    debug_assert!(start.is_finite() && end.is_finite() && end > start);
    let i = ivs.partition_point(|&(s, _)| s < start);
    if i > 0 {
        let (_, pe) = ivs[i - 1];
        assert!(pe <= start + EPS, "overlap with previous interval");
    }
    if let Some(&(ns, _)) = ivs.get(i) {
        assert!(end <= ns + EPS, "overlap with next interval");
    }
    ivs.insert(i, (start, end));
}

/// A resource timeline that can answer earliest-fit queries; implemented by
/// the plain [`IntervalSet`] and the probe-time [`OverlayView`], so
/// [`common_fit`] composes either form.
pub trait BusyTimeline {
    /// A `τ ≥ ready` such that `[τ, τ + dur)` is free: the least one,
    /// except that a start within `2·EPS` of a busy interval's end can be
    /// passed over. Idempotent (`τ` is its own fit), and `τ` is either
    /// `ready` or more than `EPS` after it.
    fn next_fit(&self, ready: f64, dur: f64) -> f64;
}

impl<T: BusyTimeline + ?Sized> BusyTimeline for &T {
    #[inline]
    fn next_fit(&self, ready: f64, dur: f64) -> f64 {
        (**self).next_fit(ready, dur)
    }
}

/// A sorted set of non-overlapping half-open busy intervals.
#[derive(Debug, Clone, Default)]
pub struct IntervalSet {
    ivs: Vec<(f64, f64)>,
}

impl IntervalSet {
    /// Empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of busy intervals.
    pub fn len(&self) -> usize {
        self.ivs.len()
    }

    /// `true` when no interval is recorded.
    pub fn is_empty(&self) -> bool {
        self.ivs.is_empty()
    }

    /// Total busy time.
    pub fn total(&self) -> f64 {
        self.ivs.iter().map(|(s, e)| e - s).sum()
    }

    /// The busy intervals, sorted by start.
    pub fn intervals(&self) -> &[(f64, f64)] {
        &self.ivs
    }

    /// `true` iff `[start, end)` does not intersect any busy interval
    /// (with `EPS` slack at the boundaries).
    pub fn is_free(&self, start: f64, end: f64) -> bool {
        if end - start <= EPS {
            return true;
        }
        // Binary search for the first interval ending after `start`.
        let i = self.ivs.partition_point(|&(_, e)| e <= start + EPS);
        match self.ivs.get(i) {
            Some(&(s, _)) => s + EPS >= end,
            None => true,
        }
    }

    /// The first `τ ≥ ready`, walking forward gap by gap, such that
    /// `[τ, τ + dur)` is free. It is the least free start except that one
    /// within `2·EPS` of a busy interval's end can be passed over: `next_fit`
    /// is not monotone in `ready` ([`IntervalSet::fit_lower_bound`]).
    pub fn next_fit(&self, ready: f64, dur: f64) -> f64 {
        if dur <= EPS {
            return ready;
        }
        next_fit_in(&self.ivs, ready, dur)
    }

    /// A lower bound on [`IntervalSet::next_fit`]`(r, dur)` over every
    /// `r ≥ ready`, for times below 2³².
    ///
    /// `next_fit` is not monotone in `ready`. A ready time less than `EPS`
    /// before the end of a busy interval skips that interval, where an
    /// earlier one waits for its end. The two `EPS` slacks can then also
    /// let the later ready time fit a gap that the earlier one misses.
    /// This walk visits the same gaps, but past a blocking interval it
    /// advances only to `end − 2·EPS`. Every fit from a later ready time
    /// ends within `EPS` of that interval's end or after it, so it starts
    /// at or after that point.
    pub fn fit_lower_bound(&self, ready: f64, dur: f64) -> f64 {
        if dur <= EPS {
            return ready;
        }
        let ivs = &self.ivs;
        let mut t = ready;
        let mut i = ivs.partition_point(|&(_, e)| e <= t + EPS);
        while let Some(&(s, e)) = ivs.get(i) {
            if s + EPS >= t + dur {
                break;
            }
            t = t.max(e - 2.0 * EPS);
            i += 1;
        }
        t
    }

    /// Insert a busy interval. Zero-length intervals are ignored.
    ///
    /// # Panics
    /// If the interval overlaps an existing one by more than `EPS`.
    pub fn insert(&mut self, start: f64, end: f64) {
        if end - start <= EPS {
            return;
        }
        insert_sorted(&mut self.ivs, start, end);
    }

    /// Remove the exact busy interval `[start, end)` previously inserted
    /// (the undo-log primitive). Zero-length intervals were never stored
    /// and are ignored.
    ///
    /// # Panics
    /// If no interval with these exact endpoints is present.
    pub fn remove(&mut self, start: f64, end: f64) {
        if end - start <= EPS {
            return;
        }
        let i = self.ivs.partition_point(|&(s, _)| s < start);
        // `insert` stored the exact bits, so equality search suffices; the
        // partition point lands on the first interval starting at `start`.
        match self.ivs.get(i) {
            Some(&(s, e)) if s == start && e == end => {
                self.ivs.remove(i);
            }
            _ => panic!("remove of interval [{start}, {end}) not present"),
        }
    }
}

impl BusyTimeline for IntervalSet {
    #[inline]
    fn next_fit(&self, ready: f64, dur: f64) -> f64 {
        IntervalSet::next_fit(self, ready, dur)
    }
}

/// Probe-time view of a base [`IntervalSet`] plus a small sorted delta of
/// tentative reservations (the candidate's own planned messages).
///
/// Fit queries see the union of base and delta without materializing it:
/// the placement engine evaluates every candidate processor against
/// overlays and only touches the base sets on commit, so abandoned probes
/// cost no clone and no cleanup.
#[derive(Debug, Clone, Copy)]
pub struct OverlayView<'a> {
    base: &'a IntervalSet,
    added: &'a [(f64, f64)],
}

impl<'a> OverlayView<'a> {
    /// View `base` with the tentative sorted reservations `added`.
    pub fn new(base: &'a IntervalSet, added: &'a [(f64, f64)]) -> Self {
        debug_assert!(added.windows(2).all(|w| w[0].1 <= w[1].0 + EPS));
        Self { base, added }
    }
}

impl BusyTimeline for OverlayView<'_> {
    /// A fit in the union of base and delta: alternate per-layer fits
    /// until both accept the same start, as [`earliest_common_fit`] does.
    /// The result is free in both layers and at least `ready`; like each
    /// layer's fit, it is the least such start except that one within
    /// `2·EPS` of a busy interval's end can be passed over, so it need not
    /// equal a fit against the merged set.
    fn next_fit(&self, ready: f64, dur: f64) -> f64 {
        if dur <= EPS {
            return ready;
        }
        let mut t = ready;
        loop {
            let t1 = next_fit_in(self.base.intervals(), t, dur);
            let t2 = next_fit_in(self.added, t1, dur);
            if t2 == t1 {
                return t2;
            }
            t = t2;
        }
    }
}

/// A growable sorted delta of tentative reservations, paired with
/// [`OverlayView`] during probes.
#[derive(Debug, Clone, Default)]
pub struct OverlayDelta {
    ivs: Vec<(f64, f64)>,
}

impl OverlayDelta {
    /// Empty delta.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a tentative reservation. Zero-length reservations are
    /// ignored, mirroring [`IntervalSet::insert`].
    ///
    /// # Panics
    /// If the reservation overlaps an existing delta entry by more than
    /// `EPS` (same policy as [`IntervalSet::insert`]).
    pub fn insert(&mut self, start: f64, end: f64) {
        if end - start <= EPS {
            return;
        }
        insert_sorted(&mut self.ivs, start, end);
    }

    /// The tentative reservations, sorted by start.
    pub fn intervals(&self) -> &[(f64, f64)] {
        &self.ivs
    }

    /// Drop all tentative reservations (reuse between probes).
    pub fn clear(&mut self) {
        self.ivs.clear();
    }

    /// `true` when nothing is reserved.
    pub fn is_empty(&self) -> bool {
        self.ivs.is_empty()
    }
}

/// A `τ ≥ ready` such that `[τ, τ + dur)` is free in each of the `n ≥ 1`
/// timelines `timeline(0)`, …, `timeline(n − 1)` (to within `EPS`): the
/// window a message needs on every channel it holds. Each pass fits the
/// timelines in order, each from the previous one's start, and the search
/// stops once the timelines after the first leave the first one's fit in
/// place (to within `EPS`). Generic over [`BusyTimeline`] so plain sets
/// and probe-time overlays compose.
///
/// `next_fit` is idempotent and moves a start by 0 or by more than `EPS`,
/// so the result is a fit in every timeline and one more full pass returns
/// it unchanged. It is a common fit, but not always the least one:
/// `next_fit` is not monotone in `ready` ([`IntervalSet::fit_lower_bound`]),
/// so a start within `2·EPS` of a busy interval's end can be passed over.
/// With busy intervals `[0, 10)` and `[10.9999987, 20)` against an empty
/// timeline, a 1-long message ready at 5 fits at 20, although
/// `10 − 0.5·EPS` fits both timelines.
pub fn common_fit<T: BusyTimeline>(
    n: usize,
    timeline: impl Fn(usize) -> T,
    ready: f64,
    dur: f64,
) -> f64 {
    debug_assert!(n > 0, "a common fit needs a timeline");
    let mut t = ready;
    loop {
        let first = timeline(0).next_fit(t, dur);
        t = (1..n).fold(first, |t, i| timeline(i).next_fit(t, dur));
        if (t - first).abs() <= EPS {
            return t;
        }
    }
}

/// [`common_fit`] over two timelines, the send and receive port of a
/// message on a platform without links.
pub fn earliest_common_fit<T: BusyTimeline + ?Sized>(a: &T, b: &T, ready: f64, dur: f64) -> f64 {
    common_fit(2, |i| if i == 0 { a } else { b }, ready, dur)
}

/// Bucket index over busy timelines: one [`IntervalSet`] per processor or
/// channel, addressed by index.
///
/// The engine keeps two of these (CPU per processor, and one over the
/// channels of `Platform::channels`). All probe-phase queries go through
/// [`IntervalIndex::overlay`]; commit and undo mutate a single bucket via
/// [`IntervalIndex::insert`] / [`IntervalIndex::remove`].
#[derive(Debug, Clone, Default)]
pub struct IntervalIndex {
    buckets: Vec<IntervalSet>,
}

impl IntervalIndex {
    /// An index over `m` processors, all timelines empty.
    pub fn new(m: usize) -> Self {
        Self {
            buckets: vec![IntervalSet::new(); m],
        }
    }

    /// Number of buckets (processors).
    pub fn num_buckets(&self) -> usize {
        self.buckets.len()
    }

    /// The timeline of processor `u`.
    #[inline]
    pub fn bucket(&self, u: usize) -> &IntervalSet {
        &self.buckets[u]
    }

    /// Probe-time view of processor `u` with tentative reservations.
    #[inline]
    pub fn overlay<'a>(&'a self, u: usize, delta: &'a OverlayDelta) -> OverlayView<'a> {
        OverlayView::new(&self.buckets[u], delta.intervals())
    }

    /// Commit a reservation on processor `u`.
    #[inline]
    pub fn insert(&mut self, u: usize, start: f64, end: f64) {
        self.buckets[u].insert(start, end);
    }

    /// Undo a reservation on processor `u` (exact endpoints).
    #[inline]
    pub fn remove(&mut self, u: usize, start: f64, end: f64) {
        self.buckets[u].remove(start, end);
    }

    /// Total busy time across all buckets (diagnostics).
    pub fn total(&self) -> f64 {
        self.buckets.iter().map(IntervalSet::total).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_set_fits_anywhere() {
        let s = IntervalSet::new();
        assert!(s.is_empty());
        assert_eq!(s.next_fit(5.0, 3.0), 5.0);
        assert!(s.is_free(0.0, 100.0));
        assert_eq!(s.total(), 0.0);
    }

    #[test]
    fn gap_insertion() {
        let mut s = IntervalSet::new();
        s.insert(0.0, 2.0);
        s.insert(5.0, 7.0);
        // Fits in the gap [2, 5).
        assert_eq!(s.next_fit(0.0, 3.0), 2.0);
        // Does not fit the gap: goes after the last interval.
        assert_eq!(s.next_fit(0.0, 4.0), 7.0);
        // Starting inside an interval pushes to its end.
        assert_eq!(s.next_fit(1.0, 1.0), 2.0);
        // Exact-fit gap.
        s.insert(2.0, 4.0);
        assert_eq!(s.next_fit(0.0, 1.0), 4.0);
        assert_eq!(s.total(), 6.0);
        assert_eq!(s.len(), 3);
    }

    /// `next_fit` steps back when a later ready time lands within `EPS`
    /// of a busy interval's end; the lower bound stays below both.
    #[test]
    fn fit_lower_bound_covers_later_ready_times() {
        let mut s = IntervalSet::new();
        s.insert(0.0, 10.0);
        s.insert(10.999_998_7, 20.0);
        let late = 10.0 - 0.5 * EPS;
        assert_eq!(s.next_fit(5.0, 1.0), 20.0);
        assert_eq!(s.next_fit(late, 1.0), late);
        assert_eq!(s.fit_lower_bound(5.0, 1.0), 10.0 - 2.0 * EPS);
        // So the common fit from 5 is not the least: `late` fits both
        // timelines, yet the fixpoint passes it over.
        assert_eq!(earliest_common_fit(&s, &IntervalSet::new(), 5.0, 1.0), 20.0);
        // Free time and a fitting gap: the bound is the fit itself.
        assert_eq!(s.fit_lower_bound(25.0, 3.0), s.next_fit(25.0, 3.0));
        s.remove(10.999_998_7, 20.0);
        assert_eq!(s.fit_lower_bound(-4.0, 2.0), s.next_fit(-4.0, 2.0));
        assert_eq!(s.fit_lower_bound(3.0, EPS), 3.0);
    }

    #[test]
    fn is_free_checks() {
        let mut s = IntervalSet::new();
        s.insert(2.0, 4.0);
        assert!(s.is_free(0.0, 2.0));
        assert!(s.is_free(4.0, 10.0));
        assert!(!s.is_free(1.0, 3.0));
        assert!(!s.is_free(3.0, 5.0));
        assert!(!s.is_free(0.0, 10.0));
        // Zero-length always free.
        assert!(s.is_free(3.0, 3.0));
    }

    #[test]
    #[should_panic(expected = "overlap")]
    fn overlapping_insert_panics() {
        let mut s = IntervalSet::new();
        s.insert(0.0, 2.0);
        s.insert(1.0, 3.0);
    }

    #[test]
    fn zero_length_ignored() {
        let mut s = IntervalSet::new();
        s.insert(1.0, 1.0);
        assert!(s.is_empty());
    }

    #[test]
    fn remove_restores_previous_state() {
        let mut s = IntervalSet::new();
        s.insert(0.0, 2.0);
        s.insert(5.0, 7.0);
        s.insert(2.0, 4.0);
        s.remove(2.0, 4.0);
        assert_eq!(s.intervals(), &[(0.0, 2.0), (5.0, 7.0)]);
        s.remove(0.0, 2.0);
        s.remove(5.0, 7.0);
        assert!(s.is_empty());
        // Zero-length removals are no-ops, like their insertions.
        s.remove(3.0, 3.0);
    }

    #[test]
    #[should_panic(expected = "not present")]
    fn remove_missing_panics() {
        let mut s = IntervalSet::new();
        s.insert(0.0, 2.0);
        s.remove(0.0, 3.0);
    }

    #[test]
    fn common_fit() {
        let mut a = IntervalSet::new();
        let mut b = IntervalSet::new();
        a.insert(0.0, 3.0);
        b.insert(4.0, 6.0);
        // dur 1: a free from 3, b busy [4,6) -> common at 3, ok (fits [3,4)).
        assert_eq!(earliest_common_fit(&a, &b, 0.0, 1.0), 3.0);
        // dur 2: a free from 3 but b blocks [4,6) -> 6.
        assert_eq!(earliest_common_fit(&a, &b, 0.0, 2.0), 6.0);
        // ready beyond everything.
        assert_eq!(earliest_common_fit(&a, &b, 10.0, 2.0), 10.0);
    }

    #[test]
    fn common_fit_interleaved() {
        let mut a = IntervalSet::new();
        let mut b = IntervalSet::new();
        // Alternating busy windows force several fixpoint iterations.
        a.insert(0.0, 1.0);
        a.insert(2.0, 3.0);
        a.insert(4.0, 5.0);
        b.insert(1.0, 2.0);
        b.insert(3.0, 4.0);
        assert_eq!(earliest_common_fit(&a, &b, 0.0, 1.0), 5.0);
    }

    #[test]
    fn overlay_matches_materialized_set() {
        let mut base = IntervalSet::new();
        base.insert(0.0, 1.0);
        base.insert(4.0, 5.0);
        let mut delta = OverlayDelta::new();
        delta.insert(1.0, 2.0);
        delta.insert(6.0, 8.0);

        let mut merged = base.clone();
        for &(s, e) in delta.intervals() {
            merged.insert(s, e);
        }
        let overlay = OverlayView::new(&base, delta.intervals());
        for ready in [0.0, 0.5, 1.5, 3.0, 5.5, 9.0] {
            for dur in [0.5, 1.0, 2.0, 3.5] {
                assert_eq!(
                    BusyTimeline::next_fit(&overlay, ready, dur),
                    merged.next_fit(ready, dur),
                    "ready={ready} dur={dur}"
                );
            }
        }
    }

    #[test]
    fn overlay_common_fit_with_two_deltas() {
        // Send side busy via base, receive side busy via delta.
        let mut send = IntervalSet::new();
        send.insert(0.0, 2.0);
        let recv = IntervalSet::new();
        let empty = OverlayDelta::new();
        let mut recv_delta = OverlayDelta::new();
        recv_delta.insert(2.0, 4.0);

        let sv = OverlayView::new(&send, empty.intervals());
        let rv = OverlayView::new(&recv, recv_delta.intervals());
        assert_eq!(earliest_common_fit(&sv, &rv, 0.0, 1.0), 4.0);
    }

    #[test]
    fn overlay_delta_reuse() {
        let mut d = OverlayDelta::new();
        d.insert(0.0, 1.0);
        d.insert(1.0, 1.0); // zero-length ignored
        assert_eq!(d.intervals().len(), 1);
        d.clear();
        assert!(d.is_empty());
    }

    #[test]
    fn index_buckets_are_independent() {
        let mut idx = IntervalIndex::new(3);
        idx.insert(0, 0.0, 2.0);
        idx.insert(2, 1.0, 3.0);
        assert_eq!(idx.bucket(0).len(), 1);
        assert!(idx.bucket(1).is_empty());
        assert_eq!(idx.bucket(2).next_fit(0.5, 1.0), 3.0);
        assert_eq!(idx.total(), 4.0);
        idx.remove(0, 0.0, 2.0);
        assert!(idx.bucket(0).is_empty());
        assert_eq!(idx.num_buckets(), 3);
    }

    #[test]
    fn index_overlay_sees_delta() {
        let mut idx = IntervalIndex::new(2);
        idx.insert(1, 0.0, 1.0);
        let mut d = OverlayDelta::new();
        d.insert(1.0, 2.0);
        let v = idx.overlay(1, &d);
        assert_eq!(BusyTimeline::next_fit(&v, 0.0, 0.5), 2.0);
        // Bucket 0 unaffected.
        let empty = OverlayDelta::new();
        assert_eq!(
            BusyTimeline::next_fit(&idx.overlay(0, &empty), 0.0, 0.5),
            0.0
        );
    }
}
