//! End-to-end integration test: instrumented workload execution → phase
//! profiles → parameter extraction → analytical model → design-space
//! exploration. This is the full pipeline the paper's methodology describes,
//! exercised across crate boundaries on real threads.

use merging_phases::model::explore::{best_asymmetric, best_symmetric};
use merging_phases::prelude::*;
use merging_phases::profile::extract_params;
use merging_phases::workloads::runner::run_sweep;

fn small_dataset() -> Dataset {
    DatasetSpec::new(3000, 6, 4, 0xABCD).generate()
}

#[test]
fn kmeans_pipeline_from_threads_to_design_space() {
    let job = ClusteringWorkload::kmeans(small_dataset());
    let profiles = run_sweep(&job, &[1, 2, 4]);
    assert_eq!(profiles.len(), 3);

    // Every profile contains a merging phase and is dominated by parallel work.
    for p in &profiles {
        assert!(p.reduction_time() > 0.0, "threads={}", p.threads);
        assert!(p.parallel_fraction() > 0.5, "threads={}", p.threads);
    }

    let extracted = extract_params(&profiles, &GrowthFunction::Linear).unwrap();
    assert!(extracted.f > 0.9);
    assert!(extracted.fcon + extracted.fred > 0.99 && extracted.fcon + extracted.fred < 1.01);

    // The extracted parameters feed the analytical model and produce a finite,
    // meaningful design space.
    let params = extracted.to_app_params();
    let model = ExtendedModel::new(params, GrowthFunction::Linear, PerfModel::Pollack);
    let budget = ChipBudget::paper_default();
    let sym = best_symmetric(&model, budget).unwrap();
    let (_, asym) = best_asymmetric(&model, budget).unwrap();
    assert!(sym.speedup > 1.0 && sym.speedup < 256.0);
    assert!(asym.speedup > 1.0 && asym.speedup < 256.0);
}

#[test]
fn all_three_workloads_produce_extractable_profiles() {
    let cluster_data = small_dataset();
    let hop_data = DatasetSpec::new(2000, 3, 4, 0x77).generate();
    let jobs = vec![
        ClusteringWorkload::kmeans(cluster_data.clone()),
        ClusteringWorkload::fuzzy(cluster_data),
        ClusteringWorkload::hop(hop_data),
    ];
    for job in jobs {
        let profiles = run_sweep(&job, &[1, 2]);
        let extracted = extract_params(&profiles, &GrowthFunction::Linear)
            .unwrap_or_else(|| panic!("{}: extraction failed", job.kind().name()));
        assert!(
            extracted.f > 0.5,
            "{}: expected a mostly parallel workload, got f = {}",
            job.kind().name(),
            extracted.f
        );
        assert!(extracted.serial_fraction < 0.5);
    }
}

#[test]
fn reduction_strategy_changes_merge_cost_but_not_results() {
    // The privatised merge should not change the clustering outcome; its
    // recorded reduction stats differ, but extraction still works.
    let data = small_dataset();
    let serial = ClusteringWorkload::kmeans(data.clone())
        .with_reduction(merging_phases::par::ReductionStrategy::SerialLinear);
    let privat = ClusteringWorkload::kmeans(data)
        .with_reduction(merging_phases::par::ReductionStrategy::ParallelPrivatized);

    let serial_profiles = run_sweep(&serial, &[1, 4]);
    let privat_profiles = run_sweep(&privat, &[1, 4]);
    for profiles in [&serial_profiles, &privat_profiles] {
        assert!(extract_params(profiles, &GrowthFunction::Linear).is_some());
    }
}

#[test]
fn speedup_series_is_reported_relative_to_single_thread() {
    let job = ClusteringWorkload::kmeans(small_dataset());
    let profiles = run_sweep(&job, &[1, 2, 4]);
    let series = merging_phases::profile::speedup_series(&profiles);
    // The series is a pure function of the recorded phase times: one entry
    // per profile in thread order, the single-thread run as the unit, every
    // other value that run's total over this one's. How large the values are
    // is the host's business, not this test's.
    assert_eq!(series.len(), profiles.len());
    assert_eq!(series[0], (1, 1.0));
    let base = profiles[0].total_time();
    for (&(threads, speedup), profile) in series.iter().zip(&profiles) {
        assert_eq!(threads, profile.threads);
        assert!(speedup.is_finite() && speedup > 0.0, "threads={threads}: {speedup}");
        assert_eq!(speedup, base / profile.total_time(), "threads={threads}");
    }
}
