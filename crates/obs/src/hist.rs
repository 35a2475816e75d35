//! Lock-free log-bucketed histograms with mergeable snapshots.
//!
//! One implementation serves every latency distribution in the workspace:
//! the serve per-verb request histograms and the engine batch timings share
//! [`LATENCY_BOUNDS_MS`], so their buckets are directly comparable.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::metrics::thread_shard;

/// Upper bucket bounds of the shared latency histogram, in milliseconds.
/// The final (implicit) bucket is `+inf`.
pub const LATENCY_BOUNDS_MS: [f64; 14] =
    [0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 2048.0, 8192.0];

/// Recording shards per histogram; updates hash the calling thread to a
/// shard so concurrent writers touch distinct cache lines.
const SHARDS: usize = 8;

/// Nearest-rank percentile of an ascending-sorted sample, `fraction` in
/// `0.0..=1.0`. Empty input yields `0.0`.
pub fn percentile_of_sorted(sorted: &[f64], fraction: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((sorted.len() as f64 - 1.0) * fraction).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

/// Buckets a histogram holds at most: 15 bounds plus the `+inf` bucket.
const MAX_BUCKETS: usize = 16;

/// One shard of bucket counts; padded so shards never share a cache line.
/// The buckets are inline, so no recorder's writes land on a line of
/// whatever the allocator placed beside them.
#[repr(align(64))]
struct HistShard {
    /// The first `bounds.len() + 1` are in use; the last of those is `+inf`.
    counts: [AtomicU64; MAX_BUCKETS],
    /// Sum of recorded values, stored as `f64` bits (CAS-accumulated).
    sum_bits: AtomicU64,
}

/// A lock-free histogram over fixed upper bucket bounds.
///
/// [`Histogram::record`] is a relaxed `fetch_add` on a thread-sharded
/// bucket plus a CAS accumulation of the sum — no locks anywhere on the
/// hot path. Read sides take a [`HistogramSnapshot`].
pub struct Histogram {
    bounds: &'static [f64],
    shards: Vec<HistShard>,
}

impl Histogram {
    /// A histogram over `bounds` (at most 15 ascending upper bucket bounds;
    /// a final `+inf` bucket is implied).
    pub fn new(bounds: &'static [f64]) -> Histogram {
        assert!(bounds.len() < MAX_BUCKETS, "a histogram takes at most 15 bounds");
        debug_assert!(bounds.windows(2).all(|w| w[0] < w[1]), "bounds must ascend");
        let shards = (0..SHARDS)
            .map(|_| HistShard {
                counts: std::array::from_fn(|_| AtomicU64::new(0)),
                sum_bits: AtomicU64::new(0f64.to_bits()),
            })
            .collect();
        Histogram { bounds, shards }
    }

    /// A histogram over the shared latency buckets ([`LATENCY_BOUNDS_MS`]).
    pub fn latency_ms() -> Histogram {
        Histogram::new(&LATENCY_BOUNDS_MS)
    }

    /// The upper bucket bounds (the final `+inf` bucket is implicit).
    pub fn bounds(&self) -> &'static [f64] {
        self.bounds
    }

    /// Record one observation.
    pub fn record(&self, value: f64) {
        let bucket =
            self.bounds.iter().position(|&bound| value <= bound).unwrap_or(self.bounds.len());
        let shard = &self.shards[thread_shard(SHARDS)];
        shard.counts[bucket].fetch_add(1, Ordering::Relaxed);
        let mut current = shard.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(current) + value).to_bits();
            match shard.sum_bits.compare_exchange_weak(
                current,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(seen) => current = seen,
            }
        }
    }

    /// A consistent-enough snapshot: each bucket is read atomically;
    /// concurrent recorders may land on either side of the cut.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut counts = vec![0u64; self.bounds.len() + 1];
        let mut sum = 0.0;
        for shard in &self.shards {
            for (total, count) in counts.iter_mut().zip(&shard.counts) {
                *total += count.load(Ordering::Relaxed);
            }
            sum += f64::from_bits(shard.sum_bits.load(Ordering::Relaxed));
        }
        HistogramSnapshot { bounds: self.bounds.to_vec(), counts, sum }
    }
}

/// An owned point-in-time view of a [`Histogram`]: bucket counts, total
/// count and sum. Snapshots over the same bounds [`merge`], and percentiles
/// are estimated from the bucket distribution.
///
/// [`merge`]: HistogramSnapshot::merge
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Upper bucket bounds; the final entry of `counts` is the `+inf`
    /// bucket.
    pub bounds: Vec<f64>,
    /// Per-bucket observation counts (`bounds.len() + 1` entries).
    pub counts: Vec<u64>,
    /// Sum of all recorded values.
    pub sum: f64,
}

impl HistogramSnapshot {
    /// An empty snapshot over `bounds`.
    pub fn empty(bounds: &[f64]) -> HistogramSnapshot {
        HistogramSnapshot { bounds: bounds.to_vec(), counts: vec![0; bounds.len() + 1], sum: 0.0 }
    }

    /// Build a snapshot by recording every value of `values`.
    pub fn from_values(bounds: &[f64], values: &[f64]) -> HistogramSnapshot {
        let mut snap = HistogramSnapshot::empty(bounds);
        for &value in values {
            let bucket = bounds.iter().position(|&bound| value <= bound).unwrap_or(bounds.len());
            snap.counts[bucket] += 1;
            snap.sum += value;
        }
        snap
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Mean of the recorded values (`0.0` when empty).
    pub fn mean(&self) -> f64 {
        let count = self.count();
        if count == 0 {
            0.0
        } else {
            self.sum / count as f64
        }
    }

    /// Fold `other` into `self`. Both snapshots must share bucket bounds;
    /// merging is associative and commutative over counts and sums.
    ///
    /// # Panics
    /// If the bucket bounds differ.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        assert_eq!(self.bounds, other.bounds, "histogram merge requires identical bounds");
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.sum += other.sum;
    }

    /// Percentile estimate from the bucket distribution: the upper bound of
    /// the bucket containing the `fraction` rank (the last finite bound for
    /// the `+inf` bucket). `0.0` when empty.
    pub fn percentile(&self, fraction: f64) -> f64 {
        let total = self.count();
        if total == 0 {
            return 0.0;
        }
        let rank = ((total as f64 - 1.0) * fraction.clamp(0.0, 1.0)).round() as u64;
        let mut seen = 0u64;
        for (bucket, &count) in self.counts.iter().enumerate() {
            seen += count;
            if count > 0 && rank < seen {
                return match self.bounds.get(bucket) {
                    Some(&bound) => bound,
                    None => *self.bounds.last().expect("at least one bound"),
                };
            }
        }
        *self.bounds.last().expect("at least one bound")
    }

    /// The buckets as a JSON array of `{"le_ms":bound,"count":n}` objects
    /// (the `+inf` bucket prints `"le_ms":"inf"`), the layout of the
    /// `metrics` verb's histograms.
    pub fn json_buckets(&self) -> String {
        let buckets: Vec<String> = self
            .counts
            .iter()
            .enumerate()
            .map(|(bucket, count)| {
                let bound = self
                    .bounds
                    .get(bucket)
                    .map(|b| b.to_string())
                    .unwrap_or_else(|| "\"inf\"".to_string());
                format!("{{\"le_ms\":{bound},\"count\":{count}}}")
            })
            .collect();
        format!("[{}]", buckets.join(","))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_cover_every_value_and_the_tail_lands_in_inf() {
        let hist = Histogram::latency_ms();
        for value in [0.1, 1.0, 50.0, 1000.0, 100_000.0] {
            hist.record(value);
        }
        let snap = hist.snapshot();
        assert_eq!(snap.count(), 5);
        assert_eq!(*snap.counts.last().unwrap(), 1, "100s lands in +inf");
        assert!((snap.sum - 101_051.1).abs() < 1e-6);
        assert!(snap.json_buckets().contains("\"le_ms\":0.25"));
    }

    #[test]
    fn bucket_rule_matches_the_historical_load_histogram() {
        // `value <= bound` picks the first bound that covers the value —
        // exactly the rule the hand-rolled load histogram used.
        let snap = HistogramSnapshot::from_values(&LATENCY_BOUNDS_MS, &[0.25, 0.2500001, 0.5]);
        assert_eq!(snap.counts[0], 1);
        assert_eq!(snap.counts[1], 2);
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let hist = std::sync::Arc::new(Histogram::latency_ms());
        std::thread::scope(|scope| {
            for thread in 0..8 {
                let hist = std::sync::Arc::clone(&hist);
                scope.spawn(move || {
                    for i in 0..1000 {
                        hist.record((thread * 1000 + i) as f64 * 0.01);
                    }
                });
            }
        });
        let snap = hist.snapshot();
        assert_eq!(snap.count(), 8000);
        let expect: f64 = (0..8000).map(|i| i as f64 * 0.01).sum();
        assert!((snap.sum - expect).abs() < 1e-6, "sum {} != {expect}", snap.sum);
    }

    #[test]
    fn merge_is_associative_and_percentiles_are_monotone() {
        let a = HistogramSnapshot::from_values(&LATENCY_BOUNDS_MS, &[0.1, 0.3, 5.0]);
        let b = HistogramSnapshot::from_values(&LATENCY_BOUNDS_MS, &[100.0, 9000.0]);
        let c = HistogramSnapshot::from_values(&LATENCY_BOUNDS_MS, &[1.5]);
        let mut ab_c = a.clone();
        ab_c.merge(&b);
        ab_c.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut a_bc = a.clone();
        a_bc.merge(&bc);
        assert_eq!(ab_c, a_bc);
        assert_eq!(ab_c.count(), 6);
        assert!(ab_c.percentile(0.5) <= ab_c.percentile(0.95));
        assert!(ab_c.percentile(0.0) <= ab_c.percentile(1.0));
        assert_eq!(HistogramSnapshot::empty(&LATENCY_BOUNDS_MS).percentile(0.5), 0.0);
    }

    #[test]
    fn percentile_of_sorted_matches_the_historical_rule() {
        let sorted: Vec<f64> = (0..100).map(|i| i as f64).collect();
        assert_eq!(percentile_of_sorted(&sorted, 0.0), 0.0);
        assert_eq!(percentile_of_sorted(&sorted, 1.0), 99.0);
        assert!(percentile_of_sorted(&sorted, 0.5) <= percentile_of_sorted(&sorted, 0.95));
        assert_eq!(percentile_of_sorted(&[], 0.5), 0.0);
    }

    #[test]
    fn the_widest_histogram_fills_every_inline_bucket() {
        static BOUNDS: [f64; MAX_BUCKETS - 1] =
            [1., 2., 3., 4., 5., 6., 7., 8., 9., 10., 11., 12., 13., 14., 15.];
        let hist = Histogram::new(&BOUNDS);
        for value in 1..=MAX_BUCKETS {
            hist.record(value as f64);
        }
        assert_eq!(hist.snapshot().counts, [1; MAX_BUCKETS]);
    }

    #[test]
    #[should_panic(expected = "at most 15 bounds")]
    fn a_histogram_refuses_more_bounds_than_it_has_buckets_for() {
        static BOUNDS: [f64; MAX_BUCKETS] =
            [1., 2., 3., 4., 5., 6., 7., 8., 9., 10., 11., 12., 13., 14., 15., 16.];
        Histogram::new(&BOUNDS);
    }
}
