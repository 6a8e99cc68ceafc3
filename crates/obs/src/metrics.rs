//! The three metric primitives every layer reports through: [`Counter`],
//! [`Gauge`], and [`Histogram`].
//!
//! All three are plain atomics with relaxed ordering — the values are
//! statistics, ordered against thread lifetimes by joins and channel
//! hand-offs, not by the metrics themselves — so recording never takes a
//! lock and never allocates. Handles are cheap to clone through
//! [`std::sync::Arc`] and are cached by hot paths at startup (the serving
//! worker pool resolves its per-endpoint handles once, before the first
//! request).

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Create a zeroed counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Increment by one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increment by `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that can go up and down. Stored as `f64` bits so byte
/// sizes, ratios (shard skew), and flags all fit the same primitive.
#[derive(Debug, Default)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Gauge {
    /// Create a gauge at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the gauge.
    #[inline]
    pub fn set(&self, value: f64) {
        self.bits.store(value.to_bits(), Ordering::Relaxed);
    }

    /// Set from an integer (byte counts, node counts).
    #[inline]
    pub fn set_u64(&self, value: u64) {
        self.set(value as f64);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// Number of log₂ microsecond buckets in a [`Histogram`].
///
/// Bucket `i` covers `[2^i, 2^(i+1))` µs; bucket 0 additionally absorbs
/// sub-microsecond samples and the last bucket absorbs everything ≥ ~35
/// minutes, so no sample is ever dropped.
pub const HISTOGRAM_BUCKETS: usize = 32;

/// A lock-free log-scale duration histogram.
///
/// Workers record durations with relaxed atomics, and quantiles are
/// answered from the bucket counts with at most a 2× relative error —
/// plenty for p50/p99 reporting. The histogram never allocates after
/// construction.
#[derive(Debug, Default)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum_micros: AtomicU64,
}

impl Histogram {
    /// Create an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one duration sample.
    pub fn record(&self, d: Duration) {
        self.record_micros(u64::try_from(d.as_micros()).unwrap_or(u64::MAX));
    }

    /// Record one sample in microseconds.
    pub fn record_micros(&self, micros: u64) {
        let idx = (63 - micros.max(1).leading_zeros() as usize).min(HISTOGRAM_BUCKETS - 1);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_micros.fetch_add(micros, Ordering::Relaxed);
    }

    /// Point-in-time copy of the histogram.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; HISTOGRAM_BUCKETS];
        for (dst, src) in buckets.iter_mut().zip(&self.buckets) {
            *dst = src.load(Ordering::Relaxed);
        }
        HistogramSnapshot {
            buckets,
            count: self.count.load(Ordering::Relaxed),
            sum_micros: self.sum_micros.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of a [`Histogram`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSnapshot {
    pub buckets: [u64; HISTOGRAM_BUCKETS],
    pub count: u64,
    pub sum_micros: u64,
}

impl HistogramSnapshot {
    /// The `q`-quantile (`0.0 ..= 1.0`) in microseconds: the geometric
    /// midpoint of the bucket holding the `⌈q·count⌉`-th sample, or `None`
    /// when the histogram is empty.
    pub fn quantile_micros(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                // Geometric midpoint of [2^i, 2^(i+1)): 2^i · √2.
                let lo = 1u64 << i;
                return Some((lo as f64 * std::f64::consts::SQRT_2) as u64);
            }
        }
        None
    }

    /// The bucket-midpoint estimate of the largest sample (`None` when
    /// empty). Equal to `quantile_micros(1.0)`.
    pub fn max_micros(&self) -> Option<u64> {
        self.quantile_micros(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates_across_threads() {
        let c = Counter::new();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..1000 {
                        c.inc();
                    }
                    c.add(7);
                });
            }
        });
        assert_eq!(c.get(), 4 * 1007);
    }

    #[test]
    fn gauge_holds_floats_and_integers() {
        let g = Gauge::new();
        assert_eq!(g.get(), 0.0);
        g.set(1.5);
        assert_eq!(g.get(), 1.5);
        g.set_u64(123_456_789);
        assert_eq!(g.get(), 123_456_789.0);
    }

    #[test]
    fn empty_histogram_has_no_quantiles() {
        let s = Histogram::new().snapshot();
        assert_eq!(s.count, 0);
        assert_eq!(s.quantile_micros(0.5), None);
        assert_eq!(s.max_micros(), None);
        assert_eq!(s.sum_micros, 0);
    }

    #[test]
    fn single_sample_answers_every_quantile() {
        let h = Histogram::new();
        h.record(Duration::from_micros(100));
        let s = h.snapshot();
        assert_eq!(s.count, 1);
        let p50 = s.quantile_micros(0.50).unwrap();
        for q in [0.0, 0.25, 0.50, 0.90, 0.99, 1.0] {
            assert_eq!(s.quantile_micros(q), Some(p50), "q={q}");
        }
        // Log-bucketed: within 2× of the true value.
        assert!((50..=200).contains(&p50), "p50 = {p50}");
    }

    #[test]
    fn quantiles_are_monotone() {
        let h = Histogram::new();
        // A spread of magnitudes: 1µs .. ~1s.
        for i in 0..1000u64 {
            h.record_micros(1 + i * i);
        }
        let s = h.snapshot();
        let p50 = s.quantile_micros(0.50).unwrap();
        let p90 = s.quantile_micros(0.90).unwrap();
        let p99 = s.quantile_micros(0.99).unwrap();
        let max = s.max_micros().unwrap();
        assert!(p50 <= p90, "p50 {p50} > p90 {p90}");
        assert!(p90 <= p99, "p90 {p90} > p99 {p99}");
        assert!(p99 <= max, "p99 {p99} > max {max}");
    }

    #[test]
    fn extreme_samples_saturate_the_top_bucket() {
        let h = Histogram::new();
        h.record(Duration::ZERO);
        h.record(Duration::from_secs(1 << 40));
        h.record_micros(u64::MAX);
        let s = h.snapshot();
        assert_eq!(s.count, 3);
        // Zero lands in bucket 0, the huge samples in the last bucket.
        assert_eq!(s.buckets[0], 1);
        assert_eq!(s.buckets[HISTOGRAM_BUCKETS - 1], 2);
        // Quantiles stay answerable and monotone even at the extremes.
        let p0 = s.quantile_micros(0.0).unwrap();
        let max = s.max_micros().unwrap();
        assert!(p0 <= max);
    }

    #[test]
    fn mean_reflects_sum() {
        // The exposition's `_sum` / `_count` is the mean a scraper derives.
        let h = Histogram::new();
        h.record_micros(100);
        h.record_micros(300);
        let s = h.snapshot();
        assert_eq!((s.sum_micros, s.count), (400, 2));
    }
}
