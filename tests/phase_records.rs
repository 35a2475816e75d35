//! The record stream each clustering workload emits, pinned phase by phase.
//!
//! Table II, Figure 2 and `repro calibrate` read nothing of a run but the
//! records its phases log. This suite pins, for every workload, the exact
//! sequence of `(kind, label, threads, per-thread samples)` in the
//! [`RunProfile`] one run returns — at 1, 3 and 64 threads,
//! and for the two tree-building workloads also at 8 threads, where the
//! tree-build cap of 4 binds. 64 is well above the core count of most
//! hosts: a parallel record still carries one sample per thread of the run.
//! Iterative workloads repeat their body once per iteration the run reports.

use merging_phases::prelude::*;

/// One record's shape: kind, label, thread count and number of per-thread
/// timing samples.
type Shape = (PhaseKind, &'static str, usize, usize);

fn data() -> Dataset {
    DatasetSpec::new(240, 3, 3, 0x5EC0).generate()
}

fn shapes(records: &[PhaseRecord]) -> Vec<(PhaseKind, &str, usize, usize)> {
    records.iter().map(|r| (r.kind, &*r.label, r.threads, r.thread_seconds.len())).collect()
}

#[test]
fn kmeans_records_init_then_one_body_per_iteration() {
    let data = data();
    let km = KMeans::new(KMeansConfig::for_dataset(&data));
    for threads in [1usize, 3, 64] {
        let (result, profile) = km.run(&data, threads);
        assert!(result.iterations >= 1);
        let mut expected: Vec<Shape> = vec![(PhaseKind::Init, "init-centers", 1, 0)];
        for _ in 0..result.iterations {
            expected.extend([
                (PhaseKind::Parallel, "assign-and-accumulate", threads, threads),
                (PhaseKind::Reduction, "merge-partials", 1, 0),
                (PhaseKind::SerialConstant, "recompute-centers", 1, 0),
            ]);
        }
        assert_eq!(shapes(&profile.records), expected, "threads={threads}");
    }
}

#[test]
fn fuzzy_records_init_iterations_and_a_final_parallel_pass() {
    let data = data();
    let fcm = FuzzyCMeans::new(FuzzyConfig::for_dataset(&data));
    for threads in [1usize, 3, 64] {
        let (result, profile) = fcm.run(&data, threads);
        assert!(result.iterations >= 1);
        let mut expected: Vec<Shape> = vec![(PhaseKind::Init, "init-centers", 1, 0)];
        for _ in 0..result.iterations {
            expected.extend([
                (PhaseKind::Parallel, "memberships", threads, threads),
                (PhaseKind::Reduction, "merge-partials", 1, 0),
                (PhaseKind::SerialConstant, "recompute-centers", 1, 0),
            ]);
        }
        expected.push((PhaseKind::Parallel, "final-assignments", threads, threads));
        assert_eq!(shapes(&profile.records), expected, "threads={threads}");
    }
}

#[test]
fn hop_records_a_capped_tree_build_four_kernels_and_the_group_merge() {
    let data = data();
    let hop = Hop::new(HopConfig::default());
    assert_eq!(hop.config().max_tree_build_threads, 4);
    for threads in [1usize, 3, 8, 64] {
        let (_, profile) = hop.run(&data, threads);
        let expected: Vec<Shape> = vec![
            (PhaseKind::Parallel, "build-kdtree", threads.min(4), 0),
            (PhaseKind::Parallel, "density", threads, threads),
            (PhaseKind::Parallel, "hop", threads, threads),
            (PhaseKind::Parallel, "chase-roots", threads, threads),
            (PhaseKind::Parallel, "partial-group-tables", threads, threads),
            (PhaseKind::Reduction, "merge-group-tables", 1, 0),
            (PhaseKind::SerialConstant, "filter-groups", 1, 0),
        ];
        assert_eq!(shapes(&profile.records), expected, "threads={threads}");
    }
}

#[test]
fn kdtree_records_extent_capped_build_knn_merge_and_summary() {
    let data = data();
    let w = KdTreeWorkload::new(KdTreeConfig::default());
    assert_eq!(w.config().max_tree_build_threads, 4);
    for threads in [1usize, 3, 8, 64] {
        let (_, profile) = w.run(&data, threads);
        let expected: Vec<Shape> = vec![
            (PhaseKind::Init, "measure-extent", 1, 0),
            (PhaseKind::Parallel, "build-kdtree", threads.min(4), 0),
            (PhaseKind::Parallel, "knn-histogram", threads, threads),
            (PhaseKind::Reduction, "merge-histograms", 1, 0),
            (PhaseKind::SerialConstant, "summarize", 1, 0),
        ];
        assert_eq!(shapes(&profile.records), expected, "threads={threads}");
    }
}

#[test]
fn a_fanned_out_merge_records_every_thread() {
    // The tree and privatised merges run on the scheduler's workers, the
    // serial-linear one on the caller; the reduction record says which.
    let data = data();
    for (strategy, threads) in ReductionStrategy::all().into_iter().flat_map(|s| [(s, 3), (s, 64)])
    {
        let config = KMeansConfig { reduction: strategy, ..KMeansConfig::for_dataset(&data) };
        let (_, profile) = KMeans::new(config).run(&data, threads);
        let merge_threads = match strategy {
            ReductionStrategy::SerialLinear => 1,
            ReductionStrategy::TreeLog | ReductionStrategy::ParallelPrivatized => threads,
        };
        let merges: Vec<&PhaseRecord> =
            profile.records.iter().filter(|r| r.kind == PhaseKind::Reduction).collect();
        assert!(!merges.is_empty(), "{strategy:?} threads={threads}");
        assert!(
            merges.iter().all(|r| r.threads == merge_threads),
            "{strategy:?} threads={threads}"
        );
    }
}
