//! Property tests of the reduction-strategy operation counts: for random
//! partial/element counts, [`ReduceStats`] must reproduce the formulas of the
//! `mp_par::reduce` module-header table,
//!
//! | strategy              | total element ops | critical path      | communication  |
//! |-----------------------|-------------------|--------------------|----------------|
//! | serial linear         | `(p − 1)·x`       | `(p − 1)·x`        | `(p − 1)·x`    |
//! | logarithmic tree      | `(p − 1)·x`       | `ceil(log2 p)·x`   | `(p − 1)·x`    |
//! | parallel (privatised) | `(p − 1)·x`       | `(p − 1)·x / p`    | `2·(p − 1)·x`  |
//!
//! and the stats observed through the public `reduce_elementwise` entry point
//! must agree with the analytical constructor.

use mp_par::reduce::{reduce_elementwise, ReduceStats, ReductionStrategy};
use mp_par::Team;
use proptest::prelude::*;

/// Integer ceil(log2 p) for p >= 1, independent of the float implementation.
fn ceil_log2(p: usize) -> usize {
    let mut rounds = 0usize;
    let mut reach = 1usize;
    while reach < p {
        reach *= 2;
        rounds += 1;
    }
    rounds
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Serial linear: everything is `(p − 1)·x`, one round per extra partial.
    #[test]
    fn serial_linear_formulas(p in 2usize..512, x in 0usize..4096) {
        let s = ReduceStats::for_strategy(ReductionStrategy::SerialLinear, p, x);
        prop_assert_eq!(s.total_ops, (p - 1) * x);
        prop_assert_eq!(s.critical_path_ops, (p - 1) * x);
        prop_assert_eq!(s.comm_elements, (p - 1) * x);
        prop_assert_eq!(s.rounds, p - 1);
    }

    /// Logarithmic tree: same total work, `ceil(log2 p)` dependent rounds.
    #[test]
    fn tree_log_formulas(p in 2usize..512, x in 0usize..4096) {
        let s = ReduceStats::for_strategy(ReductionStrategy::TreeLog, p, x);
        prop_assert_eq!(s.total_ops, (p - 1) * x);
        prop_assert_eq!(s.rounds, ceil_log2(p));
        prop_assert_eq!(s.critical_path_ops, ceil_log2(p) * x);
        prop_assert_eq!(s.comm_elements, (p - 1) * x);
    }

    /// Privatised parallel: per-thread share on the critical path, double
    /// communication (gather + broadcast), one round.
    #[test]
    fn parallel_privatized_formulas(p in 2usize..512, x in 0usize..4096) {
        let s = ReduceStats::for_strategy(ReductionStrategy::ParallelPrivatized, p, x);
        prop_assert_eq!(s.total_ops, (p - 1) * x);
        prop_assert_eq!(s.critical_path_ops, ((p - 1) * x).div_ceil(p));
        prop_assert_eq!(s.comm_elements, 2 * (p - 1) * x);
        prop_assert_eq!(s.rounds, 1);
    }

    /// One partial (or the defensive zero) merges nothing for any strategy.
    #[test]
    fn degenerate_counts_are_all_zero(partials in 0usize..2, x in 0usize..4096) {
        for strategy in ReductionStrategy::all() {
            let s = ReduceStats::for_strategy(strategy, partials, x);
            prop_assert_eq!((s.partials, s.elements), (partials, x));
            prop_assert_eq!(s.total_ops, 0);
            prop_assert_eq!(s.critical_path_ops, 0);
            prop_assert_eq!(s.comm_elements, 0);
            prop_assert_eq!(s.rounds, 0);
        }
    }

    /// The stats returned by the executing entry point agree with the
    /// analytical constructor, and the merge result is the element-wise sum.
    #[test]
    fn executed_stats_match_the_formulas(
        p in 1usize..24,
        x in 1usize..64,
        threads in 1usize..8,
    ) {
        let partials: Vec<Vec<f64>> =
            (0..p).map(|t| (0..x).map(|e| (t * x + e) as f64).collect()).collect();
        let team = Team::new(threads);
        for strategy in ReductionStrategy::all() {
            let (merged, stats) = reduce_elementwise(&partials, strategy, &team);
            prop_assert_eq!(stats, ReduceStats::for_strategy(strategy, p, x));
            for (e, value) in merged.iter().enumerate() {
                let expect: f64 = (0..p).map(|t| (t * x + e) as f64).sum();
                prop_assert!((value - expect).abs() < 1e-9);
            }
        }
    }

    /// Critical-path ordering from the paper: privatised < tree ≤ linear for
    /// p ≥ 3 with non-empty partials. Tree equals linear exactly at p = 3
    /// (`ceil(log2 3) = 2 = p − 1`) and is strictly cheaper from p = 4 on.
    #[test]
    fn critical_path_ordering_holds(p in 3usize..512, x in 1usize..4096) {
        let lin = ReduceStats::for_strategy(ReductionStrategy::SerialLinear, p, x);
        let tree = ReduceStats::for_strategy(ReductionStrategy::TreeLog, p, x);
        let par = ReduceStats::for_strategy(ReductionStrategy::ParallelPrivatized, p, x);
        prop_assert!(par.critical_path_ops < tree.critical_path_ops);
        prop_assert!(tree.critical_path_ops <= lin.critical_path_ops);
        if p >= 4 {
            prop_assert!(tree.critical_path_ops < lin.critical_path_ops);
        }
    }
}
