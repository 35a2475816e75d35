//! Property tests of the mp-obs metrics layer: concurrent counter traffic is
//! never lost (a snapshot equals the sum of every thread's increments),
//! histogram merging is associative and order-independent, and the
//! percentile estimators stay monotone and bracketed by the data.

use mp_obs::hist::{percentile_of_sorted, HistogramSnapshot, LATENCY_BOUNDS_MS};
use mp_obs::metrics::Registry;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// N threads hammering one counter (and one gauge) concurrently lose
    /// nothing: the snapshot equals the arithmetic sum.
    #[test]
    fn concurrent_counter_traffic_is_never_lost(
        threads in 2usize..8,
        increments in 1u64..400,
    ) {
        let registry = Registry::new();
        let counter = registry.counter("obs_prop_counter");
        let gauge = registry.gauge("obs_prop_gauge");

        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| {
                    for _ in 0..increments {
                        counter.inc();
                        gauge.add(2);
                        gauge.sub(1);
                    }
                });
            }
        });

        let after = registry.snapshot();
        prop_assert_eq!(after.counter("obs_prop_counter"), Some(threads as u64 * increments));
        prop_assert_eq!(after.gauge("obs_prop_gauge"), Some((threads as u64 * increments) as i64));
    }

    /// Merging histogram snapshots is associative and order-independent:
    /// however a value stream is partitioned and regrouped, the merged
    /// buckets are identical and the total matches a single-pass build.
    #[test]
    fn histogram_merge_is_associative(
        a in proptest::collection::vec(0.01f64..10_000.0, 0..40),
        b in proptest::collection::vec(0.01f64..10_000.0, 0..40),
        c in proptest::collection::vec(0.01f64..10_000.0, 0..40),
    ) {
        let snap = |values: &[f64]| HistogramSnapshot::from_values(&LATENCY_BOUNDS_MS, values);

        // (a ⊕ b) ⊕ c
        let mut left = snap(&a);
        left.merge(&snap(&b));
        left.merge(&snap(&c));
        // a ⊕ (b ⊕ c)
        let mut right_tail = snap(&b);
        right_tail.merge(&snap(&c));
        let mut right = snap(&a);
        right.merge(&right_tail);

        prop_assert_eq!(&left.counts, &right.counts);
        prop_assert_eq!(&left.bounds, &right.bounds);
        // Bucket counts are exact; the sums may associate differently as
        // floats, so they only need to agree to rounding.
        prop_assert!((left.sum - right.sum).abs() <= 1e-9 * left.sum.abs().max(1.0));

        // Both equal the single-pass build over the concatenation.
        let mut all = a.clone();
        all.extend_from_slice(&b);
        all.extend_from_slice(&c);
        let whole = snap(&all);
        prop_assert_eq!(&left.counts, &whole.counts);
        prop_assert_eq!(left.count(), all.len() as u64);
    }

    /// The exact (sorted-sample) percentile is monotone in the fraction,
    /// bracketed by the extremes, and always returns an actual sample.
    #[test]
    fn exact_percentiles_are_monotone_and_bracketed(
        values in proptest::collection::vec(0.0f64..1e6, 1..200),
        f_lo in 0.0f64..=1.0,
        f_hi in 0.0f64..=1.0,
    ) {
        let mut values = values;
        values.sort_by(|x, y| x.partial_cmp(y).unwrap());
        let (lo, hi) = if f_lo <= f_hi { (f_lo, f_hi) } else { (f_hi, f_lo) };
        let p_lo = percentile_of_sorted(&values, lo);
        let p_hi = percentile_of_sorted(&values, hi);
        prop_assert!(p_lo <= p_hi, "p({lo}) = {p_lo} > p({hi}) = {p_hi}");
        prop_assert!(*values.first().unwrap() <= p_lo && p_hi <= *values.last().unwrap());
        prop_assert!(values.contains(&p_lo) && values.contains(&p_hi));
    }

    /// The bucketed percentile estimate always lands on a bucket boundary
    /// that *covers* the exact percentile: the histogram may round a value
    /// up to its bucket's upper bound, but never past the next boundary.
    #[test]
    fn bucketed_percentiles_cover_the_exact_ones(
        // Stay below the last finite bound: the +inf bucket has no upper
        // bound to return, so values beyond it are legitimately clamped.
        values in proptest::collection::vec(0.01f64..8000.0, 1..200),
        fraction in 0.0f64..=1.0,
    ) {
        let mut values = values;
        let histogram = HistogramSnapshot::from_values(&LATENCY_BOUNDS_MS, &values);
        values.sort_by(|x, y| x.partial_cmp(y).unwrap());
        let exact = percentile_of_sorted(&values, fraction);
        let bucketed = histogram.percentile(fraction);
        prop_assert!(bucketed >= exact, "bucketed {bucketed} under-reports exact {exact}");
        // The estimate is the upper bound of the covering bucket, so no
        // smaller boundary may separate it from the exact value.
        let gap = LATENCY_BOUNDS_MS.iter().any(|&b| exact <= b && b < bucketed);
        prop_assert!(!gap, "a tighter bound separates exact {exact} from bucketed {bucketed}");
    }
}

/// Sampled gauges re-read their closure at every snapshot, so consecutive
/// snapshots observe the live value, not the value at registration time.
#[test]
fn sampled_gauges_track_their_source() {
    use std::sync::atomic::{AtomicI64, Ordering};
    static SOURCE: AtomicI64 = AtomicI64::new(7);
    let registry = Registry::new();
    registry.gauge_sampled("obs_prop_sampled", || SOURCE.load(Ordering::Relaxed));
    assert_eq!(registry.snapshot().gauge("obs_prop_sampled"), Some(7));
    SOURCE.store(42, Ordering::Relaxed);
    assert_eq!(registry.snapshot().gauge("obs_prop_sampled"), Some(42));
}
