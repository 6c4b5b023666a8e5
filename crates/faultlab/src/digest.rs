//! A bounded, mergeable latency digest.
//!
//! SLO campaigns aggregate millions of per-item latencies per cell; keeping
//! them all would make work-item results unbounded and checkpoint journals
//! enormous. [`LatencyDigest`] instead buckets each sample into a
//! logarithmic histogram read straight off the `f64` bit pattern — the
//! biased exponent picks the octave, the top [`SUB_BITS`] mantissa bits the
//! sub-bucket — so recording is integer-only (no `log`, no platform-`libm`
//! variance), every quoted percentile is a deterministic bucket lower edge
//! within `2^-SUB_BITS` (≈3.1%) of the true value, and the exact observed
//! minimum and maximum are carried alongside. Counts are plain `u64`s, so
//! merging two digests is element-wise addition: associative and
//! commutative, which is what lets shard/thread-split campaigns rebuild the
//! serial digest bit-for-bit (the harness still merges in global item order,
//! making the stronger byte-identity contract structural rather than
//! arithmetic).
//!
//! The serialized form is sparse — ascending `(bucket, count)` pairs plus
//! the total and the exact extrema — and the decoder re-validates all of it
//! (indices in range and strictly ascending, counts non-zero and summing to
//! the total, extrema finite and consistent), so a corrupted journal record
//! is rejected instead of silently skewing a report.

use serde::{DeError, Deserialize, Serialize, Sink, Value};

/// Mantissa bits per octave: 2^5 = 32 sub-buckets, ≈3.1% relative width.
pub const SUB_BITS: u32 = 5;
const SUBS: u64 = 1 << SUB_BITS;
/// Smallest biased exponent with its own buckets: values below
/// `2^(EXP_LO − 1023) = 2^-20` (≈1e-6) land in the underflow bucket.
const EXP_LO: u64 = 1003;
/// First biased exponent past the bucketed range: values at or above
/// `2^(EXP_HI − 1023) = 2^40` (≈1.1e12) land in the overflow bucket.
const EXP_HI: u64 = 1063;
/// Dense bucket count: 60 octaves × 32 sub-buckets + underflow + overflow.
pub const NUM_BUCKETS: usize = ((EXP_HI - EXP_LO) * SUBS) as usize + 2;

/// Bucket index of a finite non-negative sample.
fn bucket_of(x: f64) -> usize {
    if x < f64::from_bits(EXP_LO << 52) {
        return 0; // zero, subnormals, and everything below 2^-20
    }
    let bits = x.to_bits();
    let exp = bits >> 52; // sign bit is clear: x > 0
    if exp >= EXP_HI {
        return NUM_BUCKETS - 1;
    }
    let sub = (bits >> (52 - SUB_BITS)) & (SUBS - 1);
    1 + ((exp - EXP_LO) * SUBS + sub) as usize
}

/// Smallest value mapping into bucket `b` (the quoted representative).
fn bucket_lower(b: usize) -> f64 {
    if b == 0 {
        return 0.0;
    }
    if b == NUM_BUCKETS - 1 {
        return f64::from_bits(EXP_HI << 52);
    }
    let i = (b - 1) as u64;
    let exp = EXP_LO + i / SUBS;
    let sub = i % SUBS;
    f64::from_bits((exp << 52) | (sub << (52 - SUB_BITS)))
}

/// A bounded log-bucket histogram of latencies with exact extrema.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyDigest {
    counts: Vec<u64>,
    total: u64,
    min: Option<f64>,
    max: Option<f64>,
}

impl Default for LatencyDigest {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyDigest {
    /// An empty digest.
    pub fn new() -> Self {
        Self {
            counts: vec![0; NUM_BUCKETS],
            total: 0,
            min: None,
            max: None,
        }
    }

    /// Record one latency sample. Samples must be finite and non-negative
    /// — the simulators never report anything else, so a violation is a
    /// bug worth a loud panic, not a value worth mis-bucketing.
    pub fn record(&mut self, x: f64) {
        assert!(
            x.is_finite() && x >= 0.0,
            "latency sample {x} must be finite and non-negative"
        );
        self.counts[bucket_of(x)] += 1;
        self.total += 1;
        self.min = Some(self.min.map_or(x, |m| m.min(x)));
        self.max = Some(self.max.map_or(x, |m| m.max(x)));
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Exact smallest recorded sample.
    pub fn min(&self) -> Option<f64> {
        self.min
    }

    /// Exact largest recorded sample.
    pub fn max(&self) -> Option<f64> {
        self.max
    }

    /// Fold another digest into this one (element-wise count addition,
    /// extrema by min/max) — associative and commutative.
    pub fn merge(&mut self, other: &LatencyDigest) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.min = match (self.min, other.min) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        self.max = match (self.max, other.max) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        };
    }

    /// Nearest-rank `pct`-th percentile (same rank rule as
    /// [`ltf_core::stats`]): the lower edge of the bucket holding the
    /// ranked sample, clamped into the exact `[min, max]` envelope — so a
    /// single-sample digest quotes that sample exactly, and `pct = 100`
    /// always quotes the exact maximum.
    pub fn percentile(&self, pct: f64) -> Option<f64> {
        let idx = ltf_core::stats::nearest_rank(self.total as usize, pct)?;
        let rank = idx as u64 + 1;
        // The extreme ranks are tracked exactly; only interior ranks pay
        // the bucket-width rounding.
        if rank == self.total {
            return self.max;
        }
        if rank == 1 {
            return self.min;
        }
        let mut cum = 0u64;
        for (b, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= rank {
                let (lo, hi) = (self.min.expect("non-empty"), self.max.expect("non-empty"));
                return Some(bucket_lower(b).clamp(lo, hi));
            }
        }
        unreachable!("rank {rank} exceeds total {}", self.total)
    }
}

impl Serialize for LatencyDigest {
    /// Only the non-empty buckets, as `[index, count]` pairs.
    fn serialize<S: Sink>(&self, s: &mut S) {
        s.begin_map();
        s.key("buckets");
        s.begin_seq();
        for (b, &c) in self.counts.iter().enumerate().filter(|(_, &c)| c > 0) {
            (b, c).serialize(s);
        }
        s.end_seq();
        s.entry("count", &self.total);
        s.entry("min", &self.min);
        s.entry("max", &self.max);
        s.end_map();
    }
}

impl Deserialize for LatencyDigest {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        const TY: &str = "LatencyDigest";
        let entries = match v {
            Value::Map(entries) => entries,
            other => return Err(DeError::expected("map for `LatencyDigest`", other)),
        };
        for (k, _) in entries {
            if !matches!(k.as_str(), "buckets" | "count" | "min" | "max") {
                return Err(DeError::unknown_field(k, TY));
            }
        }
        let sparse: Vec<(u64, u64)> = serde::__field(entries, "buckets", TY)?;
        let total: u64 = serde::__field(entries, "count", TY)?;
        let min: Option<f64> = serde::__field(entries, "min", TY)?;
        let max: Option<f64> = serde::__field(entries, "max", TY)?;

        let mut counts = vec![0u64; NUM_BUCKETS];
        let mut sum = 0u64;
        let mut prev: Option<u64> = None;
        for &(b, c) in &sparse {
            if b >= NUM_BUCKETS as u64 {
                return Err(DeError::custom(format!(
                    "buckets: index {b} out of range (digest has {NUM_BUCKETS} buckets)"
                )));
            }
            if prev.is_some_and(|p| b <= p) {
                return Err(DeError::custom(format!(
                    "buckets: index {b} not strictly ascending"
                )));
            }
            if c == 0 {
                return Err(DeError::custom(format!("buckets: index {b} has count 0")));
            }
            prev = Some(b);
            counts[b as usize] = c;
            sum = sum
                .checked_add(c)
                .ok_or_else(|| DeError::custom("buckets: counts overflow u64"))?;
        }
        if sum != total {
            return Err(DeError::custom(format!(
                "count {total} does not match bucket sum {sum}"
            )));
        }
        let consistent = match (total, min, max) {
            (0, None, None) => true,
            (n, Some(lo), Some(hi)) if n > 0 => lo.is_finite() && hi.is_finite() && lo <= hi,
            _ => false,
        };
        if !consistent {
            return Err(DeError::custom(format!(
                "extrema min={min:?} max={max:?} inconsistent with count {total}"
            )));
        }
        Ok(Self {
            counts,
            total,
            min,
            max,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_edges_are_monotone_and_self_consistent() {
        let mut prev = -1.0f64;
        for b in 0..NUM_BUCKETS {
            let lo = bucket_lower(b);
            assert!(lo > prev, "bucket {b}: lower edge {lo} not increasing");
            prev = lo;
            // The lower edge of every bucket maps back into that bucket.
            assert_eq!(bucket_of(lo), b, "bucket {b}: lower edge {lo} drifts");
        }
        // Relative bucket width in the normal range is 2^-SUB_BITS.
        for x in [1e-3, 0.5, 1.0, 7.25, 1e4, 9.9e9] {
            let b = bucket_of(x);
            let lo = bucket_lower(b);
            assert!(lo <= x && x < bucket_lower(b + 1));
            assert!((x - lo) / x <= 1.0 / SUBS as f64 + 1e-12);
        }
        assert_eq!(bucket_of(0.0), 0);
        assert_eq!(bucket_of(1e-9), 0);
        assert_eq!(bucket_of(1e15), NUM_BUCKETS - 1);
    }

    #[test]
    fn percentiles_clamp_to_exact_extrema() {
        let mut d = LatencyDigest::new();
        assert_eq!(d.percentile(50.0), None);
        d.record(42.5);
        // One sample: every percentile is that sample, exactly.
        assert_eq!(d.percentile(0.0), Some(42.5));
        assert_eq!(d.percentile(50.0), Some(42.5));
        assert_eq!(d.percentile(100.0), Some(42.5));
        for x in [10.0, 20.0, 30.0, 40.0] {
            d.record(x);
        }
        assert_eq!(d.count(), 5);
        assert_eq!(d.min(), Some(10.0));
        assert_eq!(d.max(), Some(42.5));
        // p100 is always the exact maximum; interior percentiles are
        // bucket lower edges within one bucket width below the truth.
        assert_eq!(d.percentile(100.0), Some(42.5));
        let p50 = d.percentile(50.0).unwrap();
        assert!(p50 <= 30.0 && p50 > 30.0 * (1.0 - 1.0 / SUBS as f64) - 1e-12);
    }

    #[test]
    fn merge_equals_concatenated_recording() {
        let xs = [3.0, 1.5, 88.0, 0.25, 3.0, 1e7];
        let ys = [2.0, 2.0, 640.0];
        let mut both = LatencyDigest::new();
        for &x in xs.iter().chain(&ys) {
            both.record(x);
        }
        let (mut a, mut b) = (LatencyDigest::new(), LatencyDigest::new());
        xs.iter().for_each(|&x| a.record(x));
        ys.iter().for_each(|&y| b.record(y));
        a.merge(&b);
        assert_eq!(a, both);
        // Merging the empty digest is the identity, in either direction.
        let mut e = LatencyDigest::new();
        e.merge(&a);
        a.merge(&LatencyDigest::new());
        assert_eq!(e, a);
    }

    #[test]
    fn serde_round_trip_is_exact_and_strict() {
        let mut d = LatencyDigest::new();
        for &x in &[0.0, 1.0, 1.03125, 2.5, 1e13] {
            d.record(x);
        }
        let text = serde_json::to_string(&d).unwrap();
        let back: LatencyDigest = serde_json::from_str(&text).unwrap();
        assert_eq!(back, d);
        assert_eq!(serde_json::to_string(&back).unwrap(), text);

        let empty_text = serde_json::to_string(&LatencyDigest::new()).unwrap();
        let back: LatencyDigest = serde_json::from_str(&empty_text).unwrap();
        assert!(back.is_empty());

        // Corruption is rejected, not absorbed.
        for bad in [
            r#"{"buckets":[[0,1]],"count":2,"min":1.0,"max":1.0}"#, // sum mismatch
            r#"{"buckets":[[9999999,1]],"count":1,"min":1.0,"max":1.0}"#, // out of range
            r#"{"buckets":[[5,1],[3,1]],"count":2,"min":1.0,"max":1.0}"#, // not ascending
            r#"{"buckets":[[5,0]],"count":0,"min":null,"max":null}"#, // zero count
            r#"{"buckets":[],"count":0,"min":1.0,"max":null}"#,     // extrema mismatch
            r#"{"buckets":[],"count":0,"min":null,"max":null,"bogus":1}"#, // unknown field
        ] {
            assert!(
                serde_json::from_str::<LatencyDigest>(bad).is_err(),
                "accepted corrupt digest {bad}"
            );
        }
    }
}
