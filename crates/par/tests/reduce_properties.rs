//! Property test of the reduction strategies' results: for random
//! partial/element counts and team sizes, every strategy of the public
//! `reduce_elementwise` entry point merges to the element-wise sum.
//!
//! What each strategy costs is `mp_cmpsim`'s reduction walk, tested there.

use mp_par::reduce::{reduce_elementwise, ReductionStrategy};
use mp_par::Team;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Every strategy, on any team, merges to the element-wise sum.
    #[test]
    fn every_strategy_merges_to_the_elementwise_sum(
        p in 1usize..24,
        x in 1usize..64,
        threads in 1usize..8,
    ) {
        let partials: Vec<Vec<f64>> =
            (0..p).map(|t| (0..x).map(|e| (t * x + e) as f64).collect()).collect();
        let team = Team::new(threads);
        for strategy in ReductionStrategy::all() {
            let merged = reduce_elementwise(&partials, strategy, &team);
            prop_assert_eq!(merged.len(), x);
            for (e, value) in merged.iter().enumerate() {
                let expect: f64 = (0..p).map(|t| (t * x + e) as f64).sum();
                prop_assert!((value - expect).abs() < 1e-9);
            }
        }
    }
}
