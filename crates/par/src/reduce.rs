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
//! (paper Section V-E). The one costed description of each strategy is
//! `mp_cmpsim`'s reduction walk (`engine.rs`), which the simulator and the
//! design-space sweeps both run. The walk also counts the copy of the first
//! partial, so its critical paths — `p·x`, `(⌈log2 p⌉ + 1)·x` and `x` —
//! sit one partial above the table's.

use std::borrow::Cow;
use std::ops::Range;
use std::sync::Mutex;

use serde::{Deserialize, Serialize};

use crate::pool::Team;

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

/// Add `other` into `acc` element by element.
fn add_into(acc: &mut [f64], other: &[f64]) {
    for (a, b) in acc.iter_mut().zip(other) {
        *a += *b;
    }
}

/// Pairwise tree reduction of `partials`: the tree of the recursion that
/// splits every range of partials at `⌈n/2⌉`, reduces both halves, then
/// adds the right half's sum into the left half's.
///
/// It runs level by level on `team`: a range's combine comes one level
/// above the higher of its halves', and the combines of one level touch
/// disjoint slots, so they run concurrently and every element sees the
/// recursion's additions in the recursion's order. A leaf is borrowed until
/// it is the left operand of a combine, so a merge of `p` partials copies at
/// most `⌈p/2⌉` of them.
fn tree_reduce(partials: &[Vec<f64>], team: &Team) -> Vec<f64> {
    /// Push the combines of `range` onto `levels`, returning its level.
    fn plan(range: Range<usize>, levels: &mut Vec<Vec<(usize, usize)>>) -> usize {
        if range.len() <= 1 {
            return 0;
        }
        let mid = range.start + range.len().div_ceil(2);
        let level = plan(range.start..mid, levels).max(plan(mid..range.end, levels));
        if levels.len() == level {
            levels.push(Vec::new());
        }
        levels[level].push((range.start, mid));
        level + 1
    }
    let mut levels = Vec::new();
    plan(0..partials.len(), &mut levels);
    let mut slots: Vec<Mutex<Cow<'_, [f64]>>> =
        partials.iter().map(|p| Mutex::new(Cow::Borrowed(&p[..]))).collect();
    let lock = |slot: usize| slots[slot].lock().expect("no combine panics under a slot lock");
    for level in &levels {
        team.run(level.len(), |ctx| {
            let (left, right) = level[ctx.tid];
            add_into(lock(left).to_mut(), &lock(right));
        });
    }
    slots.swap_remove(0).into_inner().expect("no combine panics under a slot lock").into_owned()
}

/// Merge element-wise `Vec<f64>` partials (the kmeans/fuzzy accumulator shape)
/// with the given strategy, forking on `team` for the strategies that can
/// exploit it.
///
/// The tree strategy combines pairs, the combines of each level
/// concurrently. The privatised parallel strategy splits the element space
/// among the team's members and each sums its slice across *all* partials,
/// which is exactly the access pattern whose communication cost the paper's
/// Section V-E models. Neither the team's size nor the split changes a bit
/// of the result.
///
/// # Panics
/// Panics if `partials` is empty or the partials have differing lengths.
pub fn reduce_elementwise(
    partials: &[Vec<f64>],
    strategy: ReductionStrategy,
    team: &Team,
) -> Vec<f64> {
    assert!(!partials.is_empty(), "cannot reduce zero partials");
    let elements = partials[0].len();
    assert!(
        partials.iter().all(|p| p.len() == elements),
        "all partials must have the same number of elements"
    );
    match strategy {
        ReductionStrategy::SerialLinear => {
            let mut acc = partials[0].clone();
            for p in &partials[1..] {
                add_into(&mut acc, p);
            }
            acc
        }
        ReductionStrategy::TreeLog => tree_reduce(partials, team),
        ReductionStrategy::ParallelPrivatized => {
            let slices = team.size().min(elements.max(1));
            let chunks = team.partials(slices, elements, |_ctx, range| {
                let mut out = vec![0.0f64; range.len()];
                for p in partials {
                    add_into(&mut out, &p[range.clone()]);
                }
                out
            });
            chunks.concat()
        }
    }
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
        let team = Team::new(4);
        for p in [1usize, 2, 3, 7, 16] {
            for x in [1usize, 8, 73] {
                let partials = make_partials(p, x);
                let expect = expected_sum(&partials);
                for strategy in ReductionStrategy::all() {
                    let got = reduce_elementwise(&partials, strategy, &team);
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
        let teams = [1usize, 2, 4].map(|threads| (threads, Team::new(threads)));
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64 - 0.5) * 10f64.powi((state % 9) as i32)
        };
        for p in 1..=33usize {
            for x in [0usize, 1, 80] {
                let partials: Vec<Vec<f64>> =
                    (0..p).map(|_| (0..x).map(|_| next()).collect()).collect();
                for &(threads, ref team) in &teams {
                    let got = reduce_elementwise(&partials, ReductionStrategy::TreeLog, team);
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
            let got = reduce_elementwise(&partials, strategy, &Team::new(4));
            assert_eq!(got, partials[0], "{strategy:?}");
        }
    }

    #[test]
    #[should_panic]
    fn empty_partials_panic() {
        reduce_elementwise(&[], ReductionStrategy::SerialLinear, &Team::new(1));
    }

    #[test]
    #[should_panic]
    fn mismatched_lengths_panic() {
        reduce_elementwise(
            &[vec![1.0, 2.0], vec![1.0]],
            ReductionStrategy::SerialLinear,
            &Team::new(1),
        );
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
        let team = Team::new(3);
        let got = reduce_elementwise(&partials, ReductionStrategy::ParallelPrivatized, &team);
        assert_eq!(got.len(), 2);
        let expect = expected_sum(&partials);
        assert!((got[0] - expect[0]).abs() < 1e-9);
    }
}
