//! The `repro calibrate` subcommand: the paper's loop, end to end.
//!
//! 1. **Measure** — run the four [`measured_jobs`] (kmeans, fuzzy, hop,
//!    kdtree) through their phase executor across a thread sweep; each run
//!    returns its own [`RunProfile`], whose records fold into one
//!    [`mp_model::calibrate::MeasuredRun`] per thread count.
//! 2. **Calibrate** — fit a [`CalibratedParams`] set per workload:
//!    `f`/`fcon`/`fred` from the single-thread run plus the growth shape and
//!    `fored` that best explain the measured serial-section multipliers.
//! 3. **Explore** — hand the calibrations to a [`MeasuredBackend`] and sweep
//!    a symmetric + asymmetric design space through the `mp-dse` engine,
//!    reporting top designs and per-axis optima and exporting the sweep.
//!
//! Measured times are wall-clock, so the fitted numbers vary run to run and
//! host to host; the *pipeline* (and the reported growth shapes) is the
//! reproducible part.

use std::path::PathBuf;
use std::process::ExitCode;

use mp_dse::prelude::*;
use mp_model::calibrate::CalibratedParams;
use mp_model::perf::PerfModel;
use mp_model::phase::RunProfile;
use mp_workloads::runner::{default_thread_sweep, run_sweep, ClusteringWorkload};

use crate::dse_cmd::{export_sweep, record_row, scenario_label};
use crate::figures::characterization::measured_jobs;
use crate::report::{render_table, TableRow};

/// The `calibrate` flags that consume a value token (see
/// [`crate::dse_cmd::VALUE_FLAGS`] for why this lives next to `parse`).
pub const VALUE_FLAGS: &[&str] = &["--threads", "--out", "--top"];

/// The subcommand's usage, printed after a parse error and in `repro`'s
/// own usage.
pub const USAGE: &str =
    "repro calibrate [--threads N] [--out DIR] [--top K] [--quick] [--exact] [--json]";

struct Options {
    threads: usize,
    out_dir: PathBuf,
    quick: bool,
    json: bool,
    exact: bool,
    top_k: usize,
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut options = Options {
        threads: 8,
        out_dir: PathBuf::from("target/calibrate"),
        quick: false,
        json: false,
        exact: false,
        top_k: 10,
    };
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let arg = arg.as_str();
        if VALUE_FLAGS.contains(&arg) {
            let value = iter.next().ok_or_else(|| format!("{arg} needs a value"))?.clone();
            match arg {
                "--threads" => {
                    options.threads = crate::cli::parse_parallelism(arg, &value)?;
                }
                "--out" => options.out_dir = PathBuf::from(value),
                "--top" => {
                    options.top_k = crate::cli::parse_count(arg, &value, 1, crate::cli::MAX_COUNT)?;
                }
                other => unreachable!("{other} is listed in VALUE_FLAGS but unhandled"),
            }
        } else {
            match arg {
                "--json" => options.json = true,
                "--quick" => options.quick = true,
                "--exact" => options.exact = true,
                other => return Err(format!("unknown calibrate option `{other}`")),
            }
        }
    }
    Ok(options)
}

/// Measure and calibrate every job across `thread_counts`.
fn calibrate_jobs(
    workloads: &[ClusteringWorkload],
    thread_counts: &[usize],
) -> Result<Vec<CalibratedParams>, String> {
    let mut calibrations = Vec::with_capacity(workloads.len());
    for job in workloads {
        let runs: Vec<_> =
            run_sweep(job, thread_counts).iter().map(RunProfile::to_measured_run).collect();
        let calibrated = CalibratedParams::fit(job.kind().name(), &runs)
            .map_err(|e| format!("calibration of `{}` failed: {e}", job.kind().name()))?;
        calibrations.push(calibrated);
    }
    Ok(calibrations)
}

fn calibration_row(calibration: &CalibratedParams) -> TableRow {
    let app = calibration.app_params();
    TableRow::new(format!("{} [{}]", app.name, calibration.growth().label()))
        .with("f", app.f)
        .with("serial_pct", app.serial_fraction() * 100.0)
        .with("fcon_pct", app.split.fcon * 100.0)
        .with("fred_pct", app.split.fred * 100.0)
        .with("fored_pct", app.fored * 100.0)
        .with("fit_rmse", calibration.fit_rmse())
}

/// The design space explored with the calibrated backend.
fn build_space(options: &Options, backend: &MeasuredBackend) -> ScenarioSpace {
    let (sym_points, budgets) =
        if options.quick { (32usize, vec![256.0]) } else { (256usize, vec![64.0, 256.0, 1024.0]) };
    let max_r: f64 = 64.0; // valid under every budget
    let sym = mp_dse::scenario::log_spaced(sym_points, max_r);
    let pow2 = |limit: f64| {
        std::iter::successors(Some(1.0f64), move |r| (r * 2.0 <= limit).then_some(r * 2.0))
    };
    let perfs = if options.quick {
        vec![PerfModel::Pollack]
    } else {
        vec![PerfModel::Pollack, PerfModel::Power(0.75)]
    };
    ScenarioSpace::new()
        .with_apps(backend.apps())
        .with_budgets(budgets)
        .clear_designs()
        .add_symmetric_grid(sym)
        .add_asymmetric_grid([1.0, 2.0, 4.0], pow2(64.0).skip(1))
        .with_perfs(perfs)
}

/// Entry point of the `calibrate` subcommand.
pub fn run(args: &[String]) -> ExitCode {
    let options = match parse(args) {
        Ok(options) => options,
        Err(message) => {
            eprintln!("{message}");
            eprintln!("usage: {USAGE}");
            return ExitCode::FAILURE;
        }
    };

    let thread_counts = default_thread_sweep(options.threads);
    let workloads = measured_jobs(options.quick);
    let calibrations = match calibrate_jobs(&workloads, &thread_counts) {
        Ok(calibrations) => calibrations,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };

    let mut backend = MeasuredBackend::new(calibrations);
    if options.exact {
        backend = backend.with_exact_growth();
    }
    let space = build_space(&options, &backend);
    let engine = Engine::with_all_cores();
    let result = engine.sweep(&space, &backend, &SweepConfig::default());
    let top = TopK::new(options.top_k).reduce(&result.records);
    let optima = per_axis_optima(&space, &result.records);

    if let Err(e) = export_sweep(&options.out_dir, &space, &result) {
        eprintln!("export failed: {e}");
        return ExitCode::FAILURE;
    }
    let calibrations_path = options.out_dir.join("calibrations.json");
    let calibrations_json = serde_json::to_string(&backend.calibrations().to_vec())
        .unwrap_or_else(|e| format!("\"serialisation failed: {e}\""));
    if let Err(e) = std::fs::write(&calibrations_path, &calibrations_json) {
        eprintln!("calibration persistence failed: {e}");
        return ExitCode::FAILURE;
    }

    if options.json {
        let apps: Vec<String> = backend
            .calibrations()
            .iter()
            .map(|c| {
                format!(
                    "{{\"app\":\"{}\",\"f\":{},\"fcon\":{},\"fred\":{},\"fored\":{},\"growth\":\"{}\",\"rmse\":{}}}",
                    c.app_params().name,
                    c.app_params().f,
                    c.app_params().split.fcon,
                    c.app_params().split.fred,
                    c.app_params().fored,
                    c.growth().label(),
                    c.fit_rmse(),
                )
            })
            .collect();
        println!(
            "{{\"experiment\":\"calibrate\",\"threads\":{:?},\"calibrations\":[{}],\"scenarios\":{},\"valid\":{},\"elapsed_seconds\":{},\"best_speedup\":{}}}",
            thread_counts,
            apps.join(","),
            result.stats.scenarios,
            result.stats.valid,
            result.stats.elapsed_seconds,
            top.first().map(|r| r.speedup.to_string()).unwrap_or_else(|| "null".to_string()),
        );
        return ExitCode::SUCCESS;
    }

    println!("measured-profile calibration — thread sweep {thread_counts:?}");
    let rows: Vec<TableRow> = backend.calibrations().iter().map(calibration_row).collect();
    println!("{}", render_table("calibrated parameters (measured on this host)", &rows, 4));

    println!(
        "design-space exploration — backend `{}`{}",
        backend.name(),
        if options.exact { " (exact measured growth)" } else { "" },
    );
    println!(
        "  swept {} scenarios ({} valid) on {} thread(s) in {:.3}s",
        result.stats.scenarios,
        result.stats.valid,
        result.stats.threads,
        result.stats.elapsed_seconds,
    );
    println!(
        "  exports: {} (JSON), {} (CSV), {} (calibrations)",
        options.out_dir.join("sweep.json").display(),
        options.out_dir.join("sweep.csv").display(),
        calibrations_path.display(),
    );
    println!();

    let labels = space.labels();
    let top_rows: Vec<TableRow> = top
        .iter()
        .enumerate()
        .map(|(rank, record)| {
            let label = scenario_label(&space, &labels, record);
            record_row(format!("{:>2}. {label}", rank + 1), record)
        })
        .collect();
    println!("{}", render_table("top designs by calibrated speedup", &top_rows, 2));

    let optima_rows: Vec<TableRow> =
        optima.iter().map(|o| record_row(format!("{}={}", o.axis, o.value), &o.record)).collect();
    println!("{}", render_table("per-axis optima", &optima_rows, 2));

    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use mp_workloads::data::DatasetSpec;
    use mp_workloads::kmeans::KMeansConfig;
    use mp_workloads::runner::WorkloadKind;

    #[test]
    fn parse_handles_all_flags() {
        let options = parse(&[
            "--threads".to_string(),
            "4".to_string(),
            "--quick".to_string(),
            "--exact".to_string(),
            "--top".to_string(),
            "3".to_string(),
        ])
        .unwrap();
        assert_eq!(options.threads, 4);
        assert!(options.quick);
        assert!(options.exact);
        assert_eq!(options.top_k, 3);
        assert!(parse(&["--bogus".to_string()]).is_err());
        assert!(parse(&["--threads".to_string()]).is_err());
        assert!(parse(&["--threads".to_string(), "0".to_string()]).is_err());
        assert!(parse(&["--threads".to_string(), "999999".to_string()]).is_err());
        assert!(parse(&["--top".to_string(), "0".to_string()]).is_err());
    }

    #[test]
    fn quick_pipeline_calibrates_all_four_workloads_and_sweeps() {
        // A miniature end-to-end run: tiny data, 1-2 threads, small space.
        let (cluster, hop) = (DatasetSpec::new(500, 3, 3, 7), DatasetSpec::new(600, 3, 4, 11));
        let mut kmeans_cfg = KMeansConfig { threshold: -1.0, max_iters: 5, ..Default::default() };
        kmeans_cfg.clusters = 3;
        let workloads = vec![
            ClusteringWorkload::kmeans(kmeans_cfg, cluster.generate()),
            ClusteringWorkload::of_kind(WorkloadKind::Fuzzy, cluster.generate()),
            ClusteringWorkload::of_kind(WorkloadKind::Hop, hop.generate()),
            ClusteringWorkload::of_kind(WorkloadKind::KdTree, hop.generate()),
        ];
        let calibrations = calibrate_jobs(&workloads, &[1, 2]).unwrap();
        assert_eq!(calibrations.len(), 4);
        let names: Vec<&str> = calibrations.iter().map(|c| c.app_params().name.as_str()).collect();
        assert_eq!(names, ["kmeans", "fuzzy", "hop", "kdtree"]);
        for calibration in &calibrations {
            let app = calibration.app_params();
            assert!(app.f > 0.0 && app.f < 1.0, "{}: f = {}", app.name, app.f);
        }

        let backend = MeasuredBackend::new(calibrations);
        let options = parse(&["--quick".to_string()]).unwrap();
        let space = build_space(&options, &backend);
        assert_eq!(space.apps().len(), 4);
        let result = Engine::new(2).sweep(&space, &backend, &SweepConfig::default());
        assert_eq!(result.records.len(), space.len());
        assert!(result.stats.valid > 0);
    }
}
