//! Service-time and request accounting, icarus-style: a bounded ring of
//! recent per-request service times feeding nearest-rank percentiles,
//! plus lifetime counters per outcome and per heuristic.

use ltf_core::stats::percentile_sorted_u64;
use serde::Serialize;
use std::collections::BTreeMap;

/// How many recent service times the percentile window keeps.
const RING_CAPACITY: usize = 8192;

/// Mutable accounting state of one service instance.
#[derive(Debug)]
pub struct ServiceStats {
    /// Ring of the most recent per-request service times, microseconds.
    ring: Vec<u64>,
    /// Next ring slot to overwrite once the ring is full.
    cursor: usize,
    served: u64,
    ok: u64,
    errors: u64,
    errors_by_kind: BTreeMap<String, u64>,
    by_heuristic: BTreeMap<String, u64>,
}

impl Default for ServiceStats {
    fn default() -> Self {
        Self::new()
    }
}

impl ServiceStats {
    /// Fresh, all-zero accounting.
    pub fn new() -> Self {
        Self {
            ring: Vec::new(),
            cursor: 0,
            served: 0,
            ok: 0,
            errors: 0,
            errors_by_kind: BTreeMap::new(),
            by_heuristic: BTreeMap::new(),
        }
    }

    /// Record a successfully answered solve request.
    pub fn record_ok(&mut self, heuristic: &str, micros: u64) {
        self.served += 1;
        self.ok += 1;
        *self.by_heuristic.entry(heuristic.to_string()).or_insert(0) += 1;
        self.push_time(micros);
    }

    /// Record an error reply of the given kind.
    pub fn record_error(&mut self, kind: &str, micros: u64) {
        self.served += 1;
        self.errors += 1;
        *self.errors_by_kind.entry(kind.to_string()).or_insert(0) += 1;
        self.push_time(micros);
    }

    fn push_time(&mut self, micros: u64) {
        if self.ring.len() < RING_CAPACITY {
            self.ring.push(micros);
        } else {
            self.ring[self.cursor] = micros;
            self.cursor = (self.cursor + 1) % RING_CAPACITY;
        }
    }

    /// Total requests answered (ok + error).
    pub fn served(&self) -> u64 {
        self.served
    }

    /// Snapshot the counters and percentile window into a wire report,
    /// with the solution cache's counters and the verdict cache's hits.
    pub fn report(
        &self,
        cache_hits: u64,
        cache_misses: u64,
        cache_len: usize,
        verdict_hits: u64,
    ) -> StatsReport {
        let mut window = self.ring.clone();
        window.sort_unstable();
        let lookups = cache_hits + cache_misses;
        StatsReport {
            served: self.served,
            ok: self.ok,
            errors: self.errors,
            errors_by_kind: self.errors_by_kind.clone(),
            by_heuristic: self.by_heuristic.clone(),
            cache_hits,
            cache_misses,
            cache_len,
            cache_hit_ratio: if lookups == 0 {
                0.0
            } else {
                cache_hits as f64 / lookups as f64
            },
            verdict_hits,
            window: window.len(),
            p50_us: percentile_sorted_u64(&window, 50.0),
            p90_us: percentile_sorted_u64(&window, 90.0),
            p99_us: percentile_sorted_u64(&window, 99.0),
            max_us: window.last().copied().unwrap_or(0),
        }
    }
}

/// Serializable statistics snapshot, the reply to `{"cmd":"stats"}`.
#[derive(Debug, Clone, Serialize)]
pub struct StatsReport {
    /// Requests answered in total.
    pub served: u64,
    /// Successful solve replies.
    pub ok: u64,
    /// Error replies.
    pub errors: u64,
    /// Error replies per error kind.
    pub errors_by_kind: BTreeMap<String, u64>,
    /// Successful replies per canonical heuristic name.
    pub by_heuristic: BTreeMap<String, u64>,
    /// Solution-cache hits over the service lifetime.
    pub cache_hits: u64,
    /// Solution-cache misses over the service lifetime.
    pub cache_misses: u64,
    /// Solutions currently cached.
    pub cache_len: usize,
    /// `cache_hits / (cache_hits + cache_misses)`, 0 before any lookup.
    pub cache_hit_ratio: f64,
    /// Requests answered from the failed-verdict cache over the service
    /// lifetime (each is also a solution-cache miss).
    pub verdict_hits: u64,
    /// Service times currently in the percentile window.
    pub window: usize,
    /// Median service time, microseconds (nearest-rank over the window).
    pub p50_us: u64,
    /// 90th-percentile service time, microseconds.
    pub p90_us: u64,
    /// 99th-percentile service time, microseconds.
    pub p99_us: u64,
    /// Slowest service time in the window, microseconds.
    pub max_us: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_report() {
        let mut s = ServiceStats::new();
        s.record_ok("ltf", 100);
        s.record_ok("ltf", 300);
        s.record_ok("rltf", 200);
        s.record_error("parse", 5);
        let r = s.report(3, 1, 2, 5);
        assert_eq!((r.served, r.ok, r.errors), (4, 3, 1));
        assert_eq!(r.by_heuristic["ltf"], 2);
        assert_eq!(r.errors_by_kind["parse"], 1);
        assert_eq!(r.cache_hit_ratio, 0.75);
        assert_eq!(r.verdict_hits, 5);
        assert_eq!(r.window, 4);
        assert_eq!(r.p50_us, 100);
        assert_eq!(r.max_us, 300);
    }

    #[test]
    fn ring_is_bounded() {
        let mut s = ServiceStats::new();
        for i in 0..(RING_CAPACITY as u64 + 10) {
            s.record_ok("ltf", i);
        }
        let r = s.report(0, 0, 0, 0);
        assert_eq!(r.window, RING_CAPACITY);
        // The oldest 10 samples were overwritten.
        assert_eq!(r.max_us, RING_CAPACITY as u64 + 9);
    }
}
