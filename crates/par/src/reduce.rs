//! Reduction (merging-phase) strategies.
//!
//! After a parallel phase each thread owns a *partial result*; the merging
//! phase combines them into one final result. The paper analyses three
//! implementations, which differ in how their cost grows with the thread
//! count `p` (for `x` reduction elements):
//!
//! | strategy              | total element ops | critical path      | communication      |
//! |-----------------------|-------------------|--------------------|--------------------|
//! | serial linear         | `(p − 1)·x`       | `(p − 1)·x`        | `(p − 1)·x`        |
//! | logarithmic tree      | `(p − 1)·x`       | `ceil(log2 p)·x`   | `(p − 1)·x`        |
//! | parallel (privatised) | `(p − 1)·x`       | `(p − 1)·x / p`    | `2·(p − 1)·x`      |
//!
//! The linear strategy is the kmeans merging loop of paper Algorithm 1; the
//! tree strategy gives the logarithmic growth function; the privatised
//! strategy removes the computational growth but pays for it in communication
//! (paper Section V-E). [`ReduceStats`] records these counts so the timing
//! simulator and the analytical model can be cross-validated against the same
//! run.

use std::borrow::Cow;

use serde::{Deserialize, Serialize};

use crate::pool::{chunk_range, parallel_partials};

/// How the per-thread partial results are merged.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ReductionStrategy {
    /// Serially accumulate every partial into the first one (linear growth).
    SerialLinear,
    /// Pairwise combining tree (logarithmic number of dependent rounds).
    TreeLog,
    /// Element-partitioned parallel merge: every thread reduces a slice of the
    /// element space across all partials (constant computational growth,
    /// all-to-all communication).
    ParallelPrivatized,
}

impl ReductionStrategy {
    /// Short name for reports and benchmark IDs.
    pub fn name(&self) -> &'static str {
        match self {
            ReductionStrategy::SerialLinear => "serial-linear",
            ReductionStrategy::TreeLog => "tree-log",
            ReductionStrategy::ParallelPrivatized => "parallel-privatized",
        }
    }

    /// All strategies, for sweeps.
    pub fn all() -> [ReductionStrategy; 3] {
        [
            ReductionStrategy::SerialLinear,
            ReductionStrategy::TreeLog,
            ReductionStrategy::ParallelPrivatized,
        ]
    }
}

/// Operation counts recorded while executing a reduction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReduceStats {
    /// Number of partial results that were merged.
    pub partials: usize,
    /// Number of reduction elements per partial.
    pub elements: usize,
    /// Total element-level combine operations performed (all threads).
    pub total_ops: usize,
    /// Element-level operations on the critical path (longest dependent chain).
    pub critical_path_ops: usize,
    /// Reduction elements logically transferred between threads.
    pub comm_elements: usize,
    /// Number of dependent combining rounds.
    pub rounds: usize,
}

impl ReduceStats {
    /// The analytical operation counts of merging `partials` partial results
    /// of `elements` elements each with `strategy` — the formulas of the
    /// module-header table.
    ///
    /// A single partial (or none) needs no merging: every count, including
    /// the round count, is zero for all strategies.
    pub fn for_strategy(strategy: ReductionStrategy, partials: usize, elements: usize) -> Self {
        if partials <= 1 {
            return ReduceStats { partials, elements, ..ReduceStats::default() };
        }
        let p = partials;
        let x = elements;
        let total_ops = (p - 1) * x;
        let (critical_path_ops, comm_elements, rounds) = match strategy {
            ReductionStrategy::SerialLinear => ((p - 1) * x, (p - 1) * x, p - 1),
            ReductionStrategy::TreeLog => {
                let rounds = (p as f64).log2().ceil() as usize;
                (rounds * x, (p - 1) * x, rounds)
            }
            ReductionStrategy::ParallelPrivatized => {
                let per_thread = ((p - 1) * x).div_ceil(p);
                (per_thread, 2 * (p - 1) * x, 1)
            }
        };
        ReduceStats { partials, elements, total_ops, critical_path_ops, comm_elements, rounds }
    }
}

/// Add `other` into `acc` element by element.
fn add_into(acc: &mut [f64], other: &[f64]) {
    for (a, b) in acc.iter_mut().zip(other) {
        *a += *b;
    }
}

/// Recursive pairwise tree reduction of `partials`: each half is reduced,
/// then the right half's sum is added into the left half's. When more than
/// one thread is available the two halves are reduced concurrently. A leaf
/// is borrowed until it is the left operand of a combine, so a merge of `p`
/// partials copies at most `⌈p/2⌉` of them.
fn tree_reduce(partials: &[Vec<f64>], threads: usize) -> Cow<'_, [f64]> {
    if let [leaf] = partials {
        return Cow::Borrowed(leaf);
    }
    let (left, right) = partials.split_at(partials.len().div_ceil(2));
    let (mut acc, other) = if threads > 1 && right.len() > 1 {
        std::thread::scope(|scope| {
            let handle = scope.spawn(|| tree_reduce(right, threads / 2));
            let acc = tree_reduce(left, threads - threads / 2);
            (acc, handle.join().expect("tree reduce worker panicked"))
        })
    } else {
        (tree_reduce(left, 1), tree_reduce(right, 1))
    };
    add_into(acc.to_mut(), &other);
    acc
}

/// Merge element-wise `Vec<f64>` partials (the kmeans/fuzzy accumulator shape)
/// with the given strategy, using up to `num_threads` threads for the
/// strategies that can exploit them.
///
/// The tree strategy combines pairs, the two halves of each level
/// concurrently. The privatised parallel strategy splits the element space
/// among `num_threads` threads and each thread sums its slice across *all*
/// partials, which is exactly the access pattern whose communication cost
/// the paper's Section V-E models.
///
/// # Panics
/// Panics if `partials` is empty or the partials have differing lengths.
pub fn reduce_elementwise(
    partials: &[Vec<f64>],
    strategy: ReductionStrategy,
    num_threads: usize,
) -> (Vec<f64>, ReduceStats) {
    assert!(!partials.is_empty(), "cannot reduce zero partials");
    let elements = partials[0].len();
    assert!(
        partials.iter().all(|p| p.len() == elements),
        "all partials must have the same number of elements"
    );
    let stats = ReduceStats::for_strategy(strategy, partials.len(), elements);
    let result = match strategy {
        ReductionStrategy::SerialLinear => {
            let mut acc = partials[0].clone();
            for p in &partials[1..] {
                add_into(&mut acc, p);
            }
            acc
        }
        ReductionStrategy::TreeLog => tree_reduce(partials, num_threads.max(1)).into_owned(),
        ReductionStrategy::ParallelPrivatized => {
            let threads = num_threads.max(1).min(elements.max(1));
            let chunks = parallel_partials(threads, elements, |ctx, range| {
                let mut out = vec![0.0f64; range.len()];
                for p in partials {
                    for (o, v) in out.iter_mut().zip(p[range.clone()].iter()) {
                        *o += *v;
                    }
                }
                (ctx.tid, out)
            });
            let mut result = vec![0.0f64; elements];
            for (tid, chunk) in chunks {
                let range = chunk_range(tid, threads, elements);
                result[range].copy_from_slice(&chunk);
            }
            result
        }
    };
    (result, stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn make_partials(p: usize, x: usize) -> Vec<Vec<f64>> {
        (0..p).map(|t| (0..x).map(|e| (t * x + e) as f64 * 0.5 + 1.0).collect()).collect()
    }

    fn expected_sum(partials: &[Vec<f64>]) -> Vec<f64> {
        let x = partials[0].len();
        let mut out = vec![0.0; x];
        for p in partials {
            for (o, v) in out.iter_mut().zip(p.iter()) {
                *o += v;
            }
        }
        out
    }

    #[test]
    fn all_strategies_agree_with_sequential_sum() {
        for p in [1usize, 2, 3, 7, 16] {
            for x in [1usize, 8, 73] {
                let partials = make_partials(p, x);
                let expect = expected_sum(&partials);
                for strategy in ReductionStrategy::all() {
                    let (got, _) = reduce_elementwise(&partials, strategy, 4);
                    for (g, e) in got.iter().zip(expect.iter()) {
                        assert!((g - e).abs() < 1e-9, "{strategy:?} p={p} x={x}");
                    }
                }
            }
        }
    }

    /// Reference tree merge: clone every partial, then combine the right half
    /// into the left half in place. The merge that borrows its leaves must
    /// reproduce its combine tree, and so its bits.
    fn tree_reduce_cloning_every_partial(partials: &[Vec<f64>], threads: usize) -> Vec<f64> {
        fn reduce(slots: &mut [Vec<f64>], threads: usize) {
            if slots.len() <= 1 {
                return;
            }
            let mid = slots.len().div_ceil(2);
            let (left, right) = slots.split_at_mut(mid);
            if threads > 1 && right.len() > 1 {
                std::thread::scope(|scope| {
                    let handle = scope.spawn(|| reduce(right, threads / 2));
                    reduce(left, threads - threads / 2);
                    handle.join().unwrap();
                });
            } else {
                reduce(left, 1);
                reduce(right, 1);
            }
            add_into(&mut left[0], &right[0]);
        }
        let mut slots = partials.to_vec();
        reduce(&mut slots, threads.max(1));
        slots.swap_remove(0)
    }

    #[test]
    fn tree_merge_is_bit_identical_to_cloning_every_partial() {
        // Values whose sums round differently in different orders, so any
        // change to the combine tree shows in the bits.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64 - 0.5) * 10f64.powi((state % 9) as i32)
        };
        for p in 1..=33usize {
            for x in [0usize, 1, 80] {
                let partials: Vec<Vec<f64>> =
                    (0..p).map(|_| (0..x).map(|_| next()).collect()).collect();
                for threads in [1usize, 2, 4] {
                    let (got, _) =
                        reduce_elementwise(&partials, ReductionStrategy::TreeLog, threads);
                    let want = tree_reduce_cloning_every_partial(&partials, threads);
                    let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(&got), bits(&want), "p={p} x={x} threads={threads}");
                }
            }
        }
    }

    #[test]
    fn single_partial_is_identity() {
        let partials = make_partials(1, 10);
        for strategy in ReductionStrategy::all() {
            let (got, stats) = reduce_elementwise(&partials, strategy, 4);
            assert_eq!(got, partials[0]);
            assert_eq!(stats.total_ops, 0);
            assert_eq!(stats.critical_path_ops, 0);
            assert_eq!(stats.comm_elements, 0, "{strategy:?}");
            assert_eq!(stats.rounds, 0, "one partial needs no rounds ({strategy:?})");
        }
    }

    #[test]
    fn degenerate_partial_counts_have_all_zero_stats() {
        // partials == 1 (and the defensive 0) must not underflow or report
        // phantom rounds for any strategy.
        for partials in [0usize, 1] {
            for strategy in ReductionStrategy::all() {
                let s = ReduceStats::for_strategy(strategy, partials, 72);
                assert_eq!(s.partials, partials);
                assert_eq!(s.elements, 72);
                assert_eq!(s.total_ops, 0, "{strategy:?}");
                assert_eq!(s.critical_path_ops, 0, "{strategy:?}");
                assert_eq!(s.comm_elements, 0, "{strategy:?}");
                assert_eq!(s.rounds, 0, "{strategy:?}");
            }
        }
    }

    #[test]
    #[should_panic]
    fn empty_partials_panic() {
        reduce_elementwise(&[], ReductionStrategy::SerialLinear, 2);
    }

    #[test]
    #[should_panic]
    fn mismatched_lengths_panic() {
        reduce_elementwise(&[vec![1.0, 2.0], vec![1.0]], ReductionStrategy::SerialLinear, 2);
    }

    #[test]
    fn stats_linear_growth() {
        let s = ReduceStats::for_strategy(ReductionStrategy::SerialLinear, 16, 72);
        assert_eq!(s.total_ops, 15 * 72);
        assert_eq!(s.critical_path_ops, 15 * 72);
        assert_eq!(s.comm_elements, 15 * 72);
        assert_eq!(s.rounds, 15);
    }

    #[test]
    fn stats_tree_growth() {
        let s = ReduceStats::for_strategy(ReductionStrategy::TreeLog, 16, 72);
        assert_eq!(s.total_ops, 15 * 72);
        assert_eq!(s.critical_path_ops, 4 * 72);
        assert_eq!(s.rounds, 4);
    }

    #[test]
    fn stats_privatized_growth() {
        let s = ReduceStats::for_strategy(ReductionStrategy::ParallelPrivatized, 16, 72);
        assert_eq!(s.total_ops, 15 * 72);
        // Critical path is the per-thread share of the work.
        assert_eq!(s.critical_path_ops, (15 * 72usize).div_ceil(16));
        // Paper: communication grows by 2·(n−1)·x (gather + broadcast).
        assert_eq!(s.comm_elements, 2 * 15 * 72);
        assert_eq!(s.rounds, 1);
    }

    #[test]
    fn stats_critical_path_ordering() {
        // For any p > 2 the critical paths order: privatized < tree < linear.
        for p in [4usize, 8, 64] {
            let x = 100;
            let lin = ReduceStats::for_strategy(ReductionStrategy::SerialLinear, p, x);
            let tree = ReduceStats::for_strategy(ReductionStrategy::TreeLog, p, x);
            let par = ReduceStats::for_strategy(ReductionStrategy::ParallelPrivatized, p, x);
            assert!(par.critical_path_ops < tree.critical_path_ops);
            assert!(tree.critical_path_ops < lin.critical_path_ops);
        }
    }

    #[test]
    fn strategy_names_are_distinct() {
        let names: Vec<_> = ReductionStrategy::all().iter().map(|s| s.name()).collect();
        assert_eq!(names.len(), 3);
        assert_ne!(names[0], names[1]);
        assert_ne!(names[1], names[2]);
    }

    #[test]
    fn privatized_respects_thread_cap_by_elements() {
        // More threads than elements must still work.
        let partials = make_partials(4, 2);
        let (got, _) = reduce_elementwise(&partials, ReductionStrategy::ParallelPrivatized, 16);
        assert_eq!(got.len(), 2);
        let expect = expected_sum(&partials);
        assert!((got[0] - expect[0]).abs() < 1e-9);
    }
}
