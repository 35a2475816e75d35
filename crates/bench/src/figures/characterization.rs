//! Figure 2 and Table II: workload characterisation.
//!
//! The paper obtains these from SESC simulations of the MineBench applications
//! (plus a validation run on real hardware for Figure 2(c)). Here the
//! simulated side comes from `mp-cmpsim` phase programs derived from the
//! algorithm structure, and the "real hardware" side from actually running the
//! instrumented Rust workloads on the host machine.

use mp_cmpsim::{
    fuzzy_program, hop_program, kmeans_program, simulate_profile, Machine, WorkloadShape,
};
use mp_model::calibrate::{MeasuredRun, RunAccounting};
use mp_model::extended::ExtendedModel;
use mp_model::growth::GrowthFunction;
use mp_model::params::{AppParams, DatasetVariant};
use mp_model::perf::PerfModel;
use mp_model::phase::RunProfile;
use mp_par::ReductionStrategy;
use mp_workloads::data::DatasetSpec;
use mp_workloads::kmeans::KMeansConfig;
use mp_workloads::runner::{run_sweep, ClusteringWorkload, WorkloadKind};

use crate::report::TableRow;

use super::CHARACTERIZATION_CORES;

/// The base data set of each application of the characterisation study, in
/// paper order: the Table IV rows Figure 2 and Table II simulate.
const BASE_SETS: [&str; 3] = ["kmeans-base", "fuzzy-base", "hop-default"];

/// The Section V-A accounting of the application of `row` simulated on its
/// data set at the characterisation core counts (the paper's 1–16-core SESC
/// runs).
pub fn simulated_accounting(row: &DatasetVariant) -> RunAccounting {
    let shape = WorkloadShape::from_variant(row);
    let program = match row.application.as_str() {
        "kmeans" => kmeans_program(&shape, ReductionStrategy::SerialLinear),
        "fuzzy" => fuzzy_program(&shape, ReductionStrategy::SerialLinear),
        "hop" => hop_program(&shape, ReductionStrategy::SerialLinear, 4),
        other => panic!("unknown application {other}"),
    };
    let runs: Vec<MeasuredRun> = CHARACTERIZATION_CORES
        .iter()
        .map(|&cores| simulate_profile(&program, &Machine::table1(cores)).to_measured_run())
        .collect();
    RunAccounting::from_runs(&runs).expect("characterisation sweep includes a single-core run")
}

/// Each application's name and its simulated accounting on its base set.
fn base_accountings() -> impl Iterator<Item = (String, RunAccounting)> {
    BASE_SETS.iter().map(|label| {
        let row = DatasetVariant::table4(label);
        let accounting = simulated_accounting(&row);
        (row.application, accounting)
    })
}

/// One row per application: its label and one `p={threads}` column per
/// point of `series`.
fn series_row(app: &str, series: &[(usize, f64)]) -> TableRow {
    series.iter().fold(TableRow::new(app), |row, &(p, v)| row.with(format!("p={p}"), v))
}

/// Figure 2(a): application speedup at 1–16 cores (simulation).
pub fn fig2a_scalability() -> Vec<TableRow> {
    base_accountings().map(|(app, accounting)| series_row(&app, &accounting.speedups)).collect()
}

/// Figure 2(b): serial-section time normalised to one core (simulation).
pub fn fig2b_serial_growth() -> Vec<TableRow> {
    base_accountings()
        .map(|(app, accounting)| series_row(&app, &accounting.serial_multipliers))
        .collect()
}

/// The measured characterisation jobs: kmeans, fuzzy and hop on their base
/// data sets, then the kd-tree kernel on hop's, in that order. `quick`
/// keeps each set's `D` and `C` but shrinks `N` to 4 000 clustering points
/// and 6 000 particles, so tests and CI stay fast.
///
/// kmeans runs without early convergence: with well-seeded data a run can
/// settle within a couple of iterations, leaving per-phase times too small
/// for stable wall-clock ratios. A negative threshold forces the full
/// iteration budget, so every thread count accumulates the same number of
/// merge phases.
pub fn measured_jobs(quick: bool) -> Vec<ClusteringWorkload> {
    let data = |label: &str, quick_points: usize| {
        let spec = DatasetSpec::from_variant(&DatasetVariant::table4(label));
        let points = if quick { quick_points } else { spec.points };
        DatasetSpec { points, ..spec }.generate()
    };
    let cluster_data = data("kmeans-base", 4000);
    let mut kmeans_cfg = KMeansConfig::for_dataset(&cluster_data);
    kmeans_cfg.threshold = -1.0;
    kmeans_cfg.max_iters = if quick { 20 } else { 50 };
    vec![
        ClusteringWorkload::kmeans(kmeans_cfg, cluster_data),
        ClusteringWorkload::of_kind(WorkloadKind::Fuzzy, data("fuzzy-base", 4000)),
        ClusteringWorkload::of_kind(WorkloadKind::Hop, data("hop-default", 6000)),
        ClusteringWorkload::of_kind(WorkloadKind::KdTree, data("hop-default", 6000)),
    ]
}

/// Figure 2(c): serial-section growth measured on the host machine by running
/// the instrumented Rust workloads: the first three [`measured_jobs`].
///
/// `thread_counts` selects the sweep (the paper uses 1–8 on a two-socket Xeon);
/// `quick` runs the shrunk data sets.
pub fn fig2c_real_serial_growth(thread_counts: &[usize], quick: bool) -> Vec<TableRow> {
    measured_jobs(quick)
        .iter()
        .take(3)
        .map(|job| {
            let runs: Vec<MeasuredRun> =
                run_sweep(job, thread_counts).iter().map(RunProfile::to_measured_run).collect();
            let accounting =
                RunAccounting::from_runs(&runs).expect("the sweep includes a single-thread run");
            series_row(job.kind().name(), &accounting.serial_multipliers)
        })
        .collect()
}

/// The extended-model parameters of `app` with `fored` fitted under the
/// paper's linear growth (Table II's procedure).
fn linear_params(app: &str, accounting: &RunAccounting) -> AppParams {
    let fored = accounting.fored(&GrowthFunction::Linear);
    AppParams::new(app, accounting.f, accounting.fcon, fored, 0.0)
        .expect("accounted fractions are valid")
}

/// Figure 2(d): model accuracy — the serial-section growth predicted by the
/// extended model (using the parameters extracted from the single-run data)
/// divided by the growth observed in the simulation. Values near 1.0 mean the
/// model tracks the simulation.
pub fn fig2d_model_accuracy() -> Vec<TableRow> {
    base_accountings()
        .map(|(app, accounting)| {
            // The serial multiplier does not read the performance model.
            let model = ExtendedModel::new(
                linear_params(&app, &accounting),
                GrowthFunction::Linear,
                PerfModel::Pollack,
            );
            let ratios: Vec<(usize, f64)> = accounting
                .serial_multipliers
                .iter()
                .filter(|&&(cores, _)| cores > 1)
                .map(|&(cores, observed)| (cores, model.serial_multiplier(cores as f64) / observed))
                .collect();
            series_row(&app, &ratios)
        })
        .collect()
}

/// Table II: application parameters extracted from the simulated runs, next to
/// the values the paper reports.
pub fn table2_extracted_parameters() -> Vec<TableRow> {
    base_accountings()
        .zip(AppParams::table2_all())
        .map(|((app, accounting), reference)| {
            TableRow::new(app)
                .with("serial_pct", accounting.serial_fraction * 100.0)
                .with("f", accounting.f)
                .with("fcon_pct", accounting.fcon * 100.0)
                .with("fred_pct", accounting.fred * 100.0)
                .with("fored_pct", accounting.fored(&GrowthFunction::Linear) * 100.0)
                .with("paper_serial_pct", reference.serial_fraction() * 100.0)
                .with("paper_fcon_pct", reference.split.fcon * 100.0)
                .with("paper_fred_pct", reference.split.fred * 100.0)
                .with("paper_fored_pct", reference.fored * 100.0)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig2a_kmeans_and_fuzzy_scale_nearly_linearly() {
        let rows = fig2a_scalability();
        assert_eq!(rows.len(), 3);
        for row in rows.iter().filter(|r| r.label != "hop") {
            let s16 = row.get("p=16").unwrap();
            assert!(s16 > 14.0, "{} 16-core speedup {s16}", row.label);
        }
        let hop16 = rows.iter().find(|r| r.label == "hop").unwrap().get("p=16").unwrap();
        assert!(hop16 > 11.0 && hop16 < 15.5, "hop speedup {hop16}");
    }

    #[test]
    fn fig2b_serial_sections_grow() {
        for row in fig2b_serial_growth() {
            let g1 = row.get("p=1").unwrap();
            let g16 = row.get("p=16").unwrap();
            assert!((g1 - 1.0).abs() < 1e-9);
            assert!(g16 > 2.0, "{}: serial growth {g16}", row.label);
        }
    }

    #[test]
    fn fig2c_real_runs_report_one_normalised_row_per_application() {
        // Wall-clock growth on a shared host is not a claim a test can hold;
        // that merge work grows with P is pinned deterministically by
        // mp-par's `reduce_properties` suite. This pins only what holds on
        // any host: the rows, their order and the p=1 normalisation.
        let rows = fig2c_real_serial_growth(&[1, 2, 4], true);
        let labels: Vec<&str> = rows.iter().map(|r| r.label.as_str()).collect();
        let jobs: Vec<&str> = measured_jobs(true).iter().map(|job| job.kind().name()).collect();
        assert_eq!(labels, jobs[..3]);
        for row in &rows {
            assert_eq!(row.get("p=1"), Some(1.0), "{}", row.label);
            for (col, v) in &row.values {
                assert!(v.is_finite() && *v >= 0.0, "{} {col}: {v}", row.label);
            }
        }
    }

    #[test]
    fn fig2c_and_calibrate_measure_the_base_sets_without_early_convergence() {
        // `repro fig2c` runs the first three of these jobs and `repro
        // calibrate` all four: kmeans and fuzzy on kmeans-base's D, C and
        // seed, hop and kdtree on hop-default's, quick or full size.
        for (quick, points, particles, iterations) in
            [(true, 4000, 6000, 20), (false, 17_695, 61_440, 50)]
        {
            let cluster = DatasetSpec::new(points, 9, 8, 0x5EED).generate();
            let hop = DatasetSpec::new(particles, 3, 16, 0x401).generate();
            let mut kmeans = KMeansConfig::for_dataset(&cluster);
            kmeans.threshold = -1.0;
            kmeans.max_iters = iterations;
            let expected = [
                ClusteringWorkload::kmeans(kmeans, cluster.clone()),
                ClusteringWorkload::of_kind(WorkloadKind::Fuzzy, cluster),
                ClusteringWorkload::of_kind(WorkloadKind::Hop, hop.clone()),
                ClusteringWorkload::of_kind(WorkloadKind::KdTree, hop),
            ];
            assert!(measured_jobs(quick) == expected, "quick = {quick}");
        }
    }

    #[test]
    fn fig2d_model_tracks_simulation_within_tolerance() {
        // kmeans and fuzzy follow an almost exactly linear growth, so the
        // linear-growth model tracks them closely. hop's merge is super-linear
        // in the simulation (as in the paper), so a linear fit over- and
        // under-shoots more at the ends of the range.
        for row in fig2d_model_accuracy() {
            // Our simulated hop merge is more strongly super-linear than the
            // paper's measurement (the partial group tables fall out of the L1
            // between 8 and 16 cores), so the linear-growth prediction deviates
            // further for hop; see EXPERIMENTS.md.
            let tolerance = if row.label == "hop" { 1.6 } else { 0.35 };
            for (col, ratio) in &row.values {
                assert!(
                    (*ratio - 1.0).abs() < tolerance,
                    "{} {col}: accuracy ratio {ratio} too far from 1",
                    row.label
                );
            }
        }
    }

    #[test]
    fn table2_parameters_have_paper_magnitudes() {
        let rows = table2_extracted_parameters();
        for row in &rows {
            let serial = row.get("serial_pct").unwrap();
            assert!(serial < 0.5, "{}: serial fraction should be far below 1 %", row.label);
            let f = row.get("f").unwrap();
            assert!(f > 0.99, "{}: parallel fraction {f}", row.label);
            let fcon = row.get("fcon_pct").unwrap();
            let fred = row.get("fred_pct").unwrap();
            assert!((fcon + fred - 100.0).abs() < 1.0);
        }
        // hop has the largest serial fraction of the three, as in the paper.
        let serial = |label: &str| {
            rows.iter().find(|r| r.label == label).unwrap().get("serial_pct").unwrap()
        };
        assert!(serial("hop") > serial("kmeans"));
        assert!(serial("kmeans") > serial("fuzzy"));
    }
}
