//! Property-based tests of the parallel runtime and the workload substrates:
//! reduction strategies agree with sequential folds, chunking is a partition,
//! and the clustering results are independent of the thread count.

use merging_phases::par::pool::chunk_range;
use merging_phases::par::{reduce_elementwise, ReductionStrategy, Team};
use merging_phases::prelude::*;
use merging_phases::workloads::kdtree::KdTree;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// All reduction strategies compute the same element-wise sum.
    #[test]
    fn reduction_strategies_agree(
        partials in proptest::collection::vec(
            proptest::collection::vec(-1e6f64..1e6, 1..40), 1..12),
        threads in 1usize..8,
    ) {
        // Normalise all partials to the length of the first.
        let len = partials[0].len();
        let partials: Vec<Vec<f64>> = partials
            .into_iter()
            .map(|mut p| { p.resize(len, 0.0); p })
            .collect();
        let mut expect = vec![0.0f64; len];
        for p in &partials {
            for (e, v) in expect.iter_mut().zip(p.iter()) {
                *e += v;
            }
        }
        let team = Team::new(threads);
        for strategy in ReductionStrategy::all() {
            let got = reduce_elementwise(&partials, strategy, &team);
            prop_assert_eq!(got.len(), len);
            for (g, e) in got.iter().zip(expect.iter()) {
                prop_assert!((g - e).abs() < 1e-6_f64.max(e.abs() * 1e-12));
            }
        }
    }

    /// Static chunking is an exact partition of the index space: contiguous
    /// ranges in thread order, the first `len % threads` one item longer.
    #[test]
    fn chunking_partitions_the_range(len in 0usize..5000, threads in 1usize..32) {
        let mut next = 0;
        for tid in 0..threads {
            let range = chunk_range(tid, threads, len);
            prop_assert_eq!(range.start, next);
            prop_assert_eq!(range.len(), len / threads + usize::from(tid < len % threads));
            next = range.end;
        }
        prop_assert_eq!(next, len);
    }

    /// Fork-join partial production sums to the sequential result for an
    /// arbitrary associative accumulation, with one partial per logical
    /// thread whatever the team's size.
    #[test]
    fn parallel_partials_match_sequential(
        data in proptest::collection::vec(-1e3f64..1e3, 0..2000),
        threads in 1usize..8,
        members in 1usize..4,
    ) {
        let partials = Team::new(members).partials(threads, data.len(), |ctx, range| {
            assert_eq!(ctx.num_threads, threads);
            data[range].iter().sum::<f64>()
        });
        prop_assert_eq!(partials.len(), threads);
        let parallel: f64 = partials.iter().sum();
        let sequential: f64 = data.iter().sum();
        prop_assert!((parallel - sequential).abs() < 1e-6);
    }

    /// k-d tree nearest neighbours match brute force for random point sets.
    #[test]
    fn kdtree_knn_matches_brute_force(
        points in proptest::collection::vec(-100.0f64..100.0, 6..300),
        k in 1usize..8,
    ) {
        let dims = 3;
        let n = points.len() / dims;
        let points = &points[..n * dims];
        let tree = KdTree::build(points, dims, &Team::new(2), 2);
        let query = [0.0, 0.0, 0.0];
        let got = tree.knn(&query, k, None);

        let mut brute: Vec<(usize, f64)> = (0..n)
            .map(|i| {
                let d2: f64 = points[i * dims..(i + 1) * dims]
                    .iter()
                    .zip(query.iter())
                    .map(|(a, b)| (a - b) * (a - b))
                    .sum();
                (i, d2)
            })
            .collect();
        brute.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
        brute.truncate(k);

        prop_assert_eq!(got.len(), brute.len());
        for (g, b) in got.iter().zip(brute.iter()) {
            prop_assert!((g.dist2 - b.1).abs() < 1e-9);
        }
    }
}

#[test]
fn kmeans_centers_are_thread_count_invariant_on_random_data() {
    // A heavier, deterministic cross-crate check kept out of proptest to bound
    // runtime: the same data set run at 1, 3 and 8 threads produces identical
    // centres and assignments.
    let data = DatasetSpec::new(1200, 5, 4, 0xFEED).generate();
    let job = KMeansConfig::for_dataset(&data);
    let km = KMeans::new(job);
    let (reference, _) = km.run(&data, 1);
    for threads in [3usize, 8] {
        let (r, _) = km.run(&data, threads);
        assert_eq!(reference.assignments, r.assignments);
        for (a, b) in reference.centers.iter().zip(r.centers.iter()) {
            assert!((a - b).abs() < 1e-6);
        }
    }
}

#[test]
fn fuzzy_membership_weights_are_positive_and_bounded() {
    let data = DatasetSpec::new(500, 3, 3, 0xBEEF).generate();
    let fcm = FuzzyCMeans::new(FuzzyConfig::for_dataset(&data));
    let (result, _) = fcm.run(&data, 4);
    assert_eq!(result.centers.len(), 9);
    // Centres must lie within the data's bounding box.
    for d in 0..3 {
        let (mut lo, mut hi) = (f64::MAX, f64::MIN);
        for i in 0..data.len() {
            lo = lo.min(data.point(i)[d]);
            hi = hi.max(data.point(i)[d]);
        }
        for c in 0..3 {
            let v = result.centers[c * 3 + d];
            assert!(v >= lo - 1e-9 && v <= hi + 1e-9, "centre coordinate {v} outside [{lo}, {hi}]");
        }
    }
}
