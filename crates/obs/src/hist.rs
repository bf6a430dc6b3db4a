//! Log-bucketed, all-atomic latency histograms.
//!
//! The bucket layout is HdrHistogram-lite: values below [`SUB`] get one
//! bucket each (exact), and every octave above that is split into
//! [`SUB`] linear sub-buckets, so the relative error of any extracted
//! quantile is bounded by the sub-bucket width — at most `1/SUB`
//! (6.25%) of the value. 976 buckets cover the whole `u64` range, so a
//! histogram is ~8 KiB of atomics: cheap enough to hold one per solver
//! and one per load-harness worker and merge at the end.
//!
//! Everything is relaxed atomics — [`Histogram::record`] is lock-free
//! and wait-free on every platform with native fetch-add — and
//! [`Histogram::merge`] makes per-thread histograms aggregatable without
//! coordination. Quantiles are extracted from a [`HistogramSummary`]
//! snapshot; a snapshot taken while writers are active is a consistent
//! *approximation* (counts may trail the sum by in-flight records),
//! which is the usual and acceptable trade for lock-freedom.

use std::sync::atomic::{AtomicU64, Ordering};

/// Sub-buckets per octave (and the width of the exact linear range).
pub const SUB: u64 = 16;
const SUB_BITS: u32 = SUB.trailing_zeros();
/// Total bucket count: the linear range plus 60 octaves of `SUB`
/// sub-buckets reach `u64::MAX`.
const BUCKETS: usize = (61 * SUB) as usize;

/// The bucket index of `v`. Monotone non-decreasing in `v`, and `v`
/// always lies within [`bucket_bounds`]`(bucket_index(v))`.
pub fn bucket_index(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros();
    let octave = msb - SUB_BITS + 1;
    let sub = (v >> (msb - SUB_BITS)) & (SUB - 1);
    octave as usize * SUB as usize + sub as usize
}

/// The inclusive `[lo, hi]` value range of bucket `i`.
pub fn bucket_bounds(i: usize) -> (u64, u64) {
    let i = i.min(BUCKETS - 1);
    if (i as u64) < SUB {
        return (i as u64, i as u64);
    }
    let octave = (i as u64 / SUB) as u32;
    let sub = i as u64 % SUB;
    let lo = (SUB + sub) << (octave - 1);
    let width = 1u64 << (octave - 1);
    (lo, lo + (width - 1))
}

/// A mergeable, all-atomic, log-bucketed histogram of `u64` samples
/// (by convention: microseconds). See the module docs for the layout.
pub struct Histogram {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Histogram({:?})", self.summary())
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Records one sample. Lock-free; relaxed ordering throughout.
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Folds every sample of `other` into `self` (bucket-wise; `other`
    /// is unchanged). Per-thread histograms merge into a global one
    /// without any coordination beyond this call.
    pub fn merge(&self, other: &Histogram) {
        for (b, o) in self.buckets.iter().zip(other.buckets.iter()) {
            let n = o.load(Ordering::Relaxed);
            if n > 0 {
                b.fetch_add(n, Ordering::Relaxed);
            }
        }
        self.count.fetch_add(other.count.load(Ordering::Relaxed), Ordering::Relaxed);
        self.sum.fetch_add(other.sum.load(Ordering::Relaxed), Ordering::Relaxed);
        self.max.fetch_max(other.max.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// Samples recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// The value at quantile `q ∈ [0, 1]`: the upper bound of the bucket
    /// holding the `⌈q·count⌉`-th smallest sample, clamped to the true
    /// recorded maximum (so `quantile(1.0) == max`, exactly). Returns 0
    /// on an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        let count = self.count.load(Ordering::Relaxed);
        if count == 0 {
            return 0;
        }
        let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                return bucket_bounds(i).1.min(self.max.load(Ordering::Relaxed));
            }
        }
        self.max.load(Ordering::Relaxed)
    }

    /// A point-in-time [`HistogramSummary`].
    pub fn summary(&self) -> HistogramSummary {
        let count = self.count.load(Ordering::Relaxed);
        HistogramSummary {
            count,
            mean: self.sum.load(Ordering::Relaxed).checked_div(count).unwrap_or(0),
            p50: self.quantile(0.50),
            p90: self.quantile(0.90),
            p99: self.quantile(0.99),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// A snapshot of a [`Histogram`]: count, mean, p50/p90/p99 and the exact
/// max, in the histogram's unit (microseconds by convention).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HistogramSummary {
    /// Samples recorded.
    pub count: u64,
    /// Arithmetic mean (exact sum / count, truncated).
    pub mean: u64,
    /// Median (bucket upper bound; ≤ 6.25% relative error).
    pub p50: u64,
    /// 90th percentile.
    pub p90: u64,
    /// 99th percentile.
    pub p99: u64,
    /// The exact maximum sample.
    pub max: u64,
}

impl std::fmt::Display for HistogramSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "count={} mean={} p50={} p90={} p99={} max={}",
            self.count, self.mean, self.p50, self.p90, self.p99, self.max
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn linear_range_is_exact() {
        let h = Histogram::new();
        for v in 0..SUB {
            h.record(v);
        }
        assert_eq!(h.count(), SUB);
        assert_eq!(h.quantile(1.0), SUB - 1);
        // Every value below SUB has its own bucket: the median of 0..16
        // is exact.
        assert_eq!(h.quantile(0.5), 7);
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let h = Histogram::new();
        assert_eq!(h.summary(), HistogramSummary::default());
    }

    #[test]
    fn extreme_values_round_trip() {
        for v in [0, 1, SUB - 1, SUB, SUB + 1, 1 << 30, u64::MAX - 1, u64::MAX] {
            let (lo, hi) = bucket_bounds(bucket_index(v));
            assert!(lo <= v && v <= hi, "{v} outside its bucket [{lo}, {hi}]");
        }
        let h = Histogram::new();
        h.record(u64::MAX);
        assert_eq!(h.quantile(1.0), u64::MAX);
        assert_eq!(h.summary().max, u64::MAX);
    }

    #[test]
    fn bucket_layout_is_contiguous() {
        // Buckets tile the u64 range with no gaps and no overlaps.
        let mut expected_lo = 0u64;
        for i in 0..BUCKETS {
            let (lo, hi) = bucket_bounds(i);
            assert_eq!(lo, expected_lo, "bucket {i} does not start where {} ended", i - 1);
            assert!(hi >= lo);
            if i == BUCKETS - 1 {
                assert_eq!(hi, u64::MAX);
                break;
            }
            expected_lo = hi + 1;
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// No value falls outside its bucket's range.
        #[test]
        fn value_within_its_bucket(v in any::<u64>()) {
            let (lo, hi) = bucket_bounds(bucket_index(v));
            prop_assert!(lo <= v && v <= hi);
        }

        /// The bucket index is monotone in the value.
        #[test]
        fn bucket_index_is_monotone(a in any::<u64>(), b in any::<u64>()) {
            let (a, b) = (a.min(b), a.max(b));
            prop_assert!(bucket_index(a) <= bucket_index(b));
        }

        /// Quantiles are monotone in q, bounded by max, and at least the
        /// true value's bucket lower bound at q = 1.
        #[test]
        fn quantiles_are_monotone_and_bounded(
            values in proptest::collection::vec(0u64..1_000_000_000, 1..64)
        ) {
            let h = Histogram::new();
            let mut max = 0;
            for &v in &values {
                h.record(v);
                max = max.max(v);
            }
            prop_assert_eq!(h.count(), values.len() as u64);
            let qs = [0.0, 0.25, 0.5, 0.9, 0.99, 1.0];
            let mut prev = 0;
            for &q in &qs {
                let x = h.quantile(q);
                prop_assert!(x >= prev, "quantile not monotone at {}", q);
                prop_assert!(x <= max);
                prev = x;
            }
            prop_assert_eq!(h.quantile(1.0), max);
        }

        /// Merging two histograms is record-equivalent: bucket counts,
        /// count, sum-derived mean and max all match recording the
        /// concatenation.
        #[test]
        fn merge_is_record_equivalent(
            a in proptest::collection::vec(0u64..1_000_000_000, 0..32),
            b in proptest::collection::vec(0u64..1_000_000_000, 0..32)
        ) {
            let ha = Histogram::new();
            let hb = Histogram::new();
            let all = Histogram::new();
            for &v in &a { ha.record(v); all.record(v); }
            for &v in &b { hb.record(v); all.record(v); }
            ha.merge(&hb);
            prop_assert_eq!(ha.summary(), all.summary());
        }
    }
}
