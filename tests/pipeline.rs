//! End-to-end integration test: instrumented workload execution → phase
//! profiles → parameter extraction → analytical model → design-space
//! exploration. This is the full pipeline the paper's methodology describes,
//! exercised across crate boundaries on real threads.

use merging_phases::model::explore::{best_asymmetric, best_symmetric};
use merging_phases::prelude::*;
use merging_phases::workloads::runner::run_sweep;

fn small_dataset() -> Dataset {
    DatasetSpec::new(3000, 6, 4, 0xABCD).generate()
}

/// The section totals of `profiles`, one run per profile, in sweep order.
fn measured_runs(profiles: &[RunProfile]) -> Vec<MeasuredRun> {
    profiles.iter().map(RunProfile::to_measured_run).collect()
}

#[test]
fn kmeans_pipeline_from_threads_to_design_space() {
    let job = ClusteringWorkload::kmeans(small_dataset());
    let profiles = run_sweep(&job, &[1, 2, 4]);
    assert_eq!(profiles.len(), 3);

    // Every run contains a merging phase and is dominated by parallel work.
    let runs = measured_runs(&profiles);
    for run in &runs {
        assert!(run.merge_seconds() > 0.0, "threads={}", run.threads);
        assert!(run.parallel_seconds / run.total_seconds() > 0.5, "threads={}", run.threads);
    }

    let accounting = RunAccounting::from_runs(&runs).unwrap();
    assert!(accounting.f > 0.9);
    assert!(accounting.fcon + accounting.fred > 0.99 && accounting.fcon + accounting.fred < 1.01);

    // The extracted parameters feed the analytical model and produce a finite,
    // meaningful design space.
    let fored = accounting.fored(&GrowthFunction::Linear);
    let params = AppParams::new("kmeans", accounting.f, accounting.fcon, fored, 0.0).unwrap();
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
        let runs = measured_runs(&run_sweep(&job, &[1, 2]));
        let accounting = RunAccounting::from_runs(&runs)
            .unwrap_or_else(|e| panic!("{}: extraction failed: {e}", job.kind().name()));
        assert!(
            accounting.f > 0.5,
            "{}: expected a mostly parallel workload, got f = {}",
            job.kind().name(),
            accounting.f
        );
        assert!(accounting.serial_fraction < 0.5);
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

    for job in [&serial, &privat] {
        let runs = measured_runs(&run_sweep(job, &[1, 4]));
        assert!(RunAccounting::from_runs(&runs).is_ok());
    }
}

#[test]
fn speedups_are_reported_relative_to_single_thread() {
    let job = ClusteringWorkload::kmeans(small_dataset());
    let runs = measured_runs(&run_sweep(&job, &[1, 2, 4]));
    let series = RunAccounting::from_runs(&runs).unwrap().speedups;
    // The series is a pure function of the recorded phase times: one entry
    // per run in thread order, the single-thread run as the unit, every
    // other value that run's total over this one's. How large the values are
    // is the host's business, not this test's.
    assert_eq!(series.len(), runs.len());
    assert_eq!(series[0], (1, 1.0));
    let base = runs[0].total_seconds();
    for (&(threads, speedup), run) in series.iter().zip(&runs) {
        assert_eq!(threads, run.threads);
        assert!(speedup.is_finite() && speedup > 0.0, "threads={threads}: {speedup}");
        assert_eq!(speedup, base / run.total_seconds(), "threads={threads}");
    }
}
