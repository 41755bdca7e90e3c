//! Lock-free counters and log₂-bucketed histograms.
//!
//! A [`Histogram`] is an array of atomic bucket counters indexed by
//! `⌈log₂(v+1)⌉`, plus exact atomic `count`, `sum`, and `max` words.
//! Writers only ever do relaxed `fetch_add`/`fetch_max`, so concurrent
//! observation from any number of threads is wait-free and never
//! loses an event: totals across writer threads are *exact*
//! (the quantiles are bucket-resolution approximations, the counts and
//! sums are not).

use std::sync::atomic::{AtomicU64, Ordering};

/// Bucket count: values 0 and every power-of-two band of `u64` get one
/// bucket (`⌈log₂(u64::MAX)⌉ = 64`, plus the zero bucket).
pub const BUCKETS: usize = 65;

/// The bucket a value lands in: 0 → bucket 0, otherwise
/// `64 - leading_zeros(v)` (so bucket `i` holds `2^(i-1) ..= 2^i - 1`).
#[inline]
fn bucket_of(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// The largest value bucket `i` can hold (its inclusive upper bound).
#[inline]
fn bucket_upper(i: usize) -> u64 {
    if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

/// A monotonically increasing event counter (relaxed atomics).
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A counter starting at zero.
    pub const fn new() -> Counter {
        Counter(AtomicU64::new(0))
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// The current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A lock-free log₂-bucketed histogram of `u64` samples (latencies in
/// microseconds, queue depths, fan-out widths…).
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Records one sample. Wait-free; safe from any thread.
    #[inline]
    pub fn observe(&self, v: u64) {
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// A point-in-time copy. Concurrent writers may land between the
    /// individual loads; totals remain self-consistent to within the
    /// in-flight samples.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// An owned copy of a [`Histogram`].
#[derive(Clone, Copy, Debug)]
pub struct HistogramSnapshot {
    /// Per-bucket sample counts (see `bucket_of` for the banding).
    pub buckets: [u64; BUCKETS],
    /// Total samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Largest sample observed (exact, not bucket-rounded).
    pub max: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl HistogramSnapshot {
    /// The approximate `q`-quantile (0.0–1.0): the inclusive upper
    /// bound of the bucket holding the `⌈q·count⌉`-th sample, capped at
    /// the exact observed max. Returns 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= target {
                return bucket_upper(i).min(self.max);
            }
        }
        self.max
    }

    /// Median (see [`HistogramSnapshot::quantile`]).
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 90th percentile.
    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Mean sample (0 when empty).
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// `(upper_bound, cumulative_count)` pairs for Prometheus
    /// exposition: one entry per bucket up to the highest non-empty
    /// one (the `+Inf` bucket is the total count and is emitted by the
    /// encoder).
    pub fn cumulative(&self) -> Vec<(u64, u64)> {
        let last = match self.buckets.iter().rposition(|&b| b > 0) {
            Some(i) => i,
            None => return Vec::new(),
        };
        let mut out = Vec::with_capacity(last + 1);
        let mut seen = 0u64;
        for (i, &b) in self.buckets.iter().enumerate().take(last + 1) {
            seen += b;
            out.push((bucket_upper(i), seen));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_band_by_log2() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(7), 3);
        assert_eq!(bucket_of(8), 4);
        assert_eq!(bucket_of(u64::MAX), 64);
        assert_eq!(bucket_upper(0), 0);
        assert_eq!(bucket_upper(3), 7);
        assert_eq!(bucket_upper(64), u64::MAX);
    }

    #[test]
    fn quantiles_track_the_distribution() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.observe(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 1000);
        assert_eq!(s.sum, 500_500);
        assert_eq!(s.max, 1000);
        // The 500th sample (value 500) lands in the 256..=511 bucket,
        // so the bucket-resolution p50 reports that bucket's bound.
        assert_eq!(s.p50(), 511);
        assert_eq!(s.p99(), 1000); // capped at the exact max
        assert!(s.quantile(0.01) <= 16);
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let s = Histogram::new().snapshot();
        assert_eq!(s.count, 0);
        assert_eq!(s.p50(), 0);
        assert_eq!(s.p99(), 0);
        assert_eq!(s.mean(), 0);
        assert!(s.cumulative().is_empty());
    }

    #[test]
    fn cumulative_ends_at_count() {
        let h = Histogram::new();
        for v in [0, 1, 5, 5, 900] {
            h.observe(v);
        }
        let s = h.snapshot();
        let cum = s.cumulative();
        assert_eq!(cum.last().map(|&(_, c)| c), Some(s.count));
        // Monotone in both coordinates.
        for w in cum.windows(2) {
            assert!(w[0].0 < w[1].0);
            assert!(w[0].1 <= w[1].1);
        }
    }
}
