//! Run instrumented parallel k-means on synthetic data, extract the paper's
//! model parameters from the measured phase profile, and feed them back into
//! the analytical model — the full pipeline the paper's characterisation
//! section describes, on real threads.
//!
//! ```text
//! cargo run --release --example clustering_profile -- [points] [dims] [clusters]
//! cargo run --release --example clustering_profile -- 4000 18 32
//! ```

use std::io::{self, Write};
use std::process::ExitCode;

use merging_phases::model::explore::best_symmetric;
use merging_phases::model::params::DatasetVariant;
use merging_phases::prelude::*;
use merging_phases::workloads::runner::{default_thread_sweep, run_sweep};

fn main() -> ExitCode {
    match write_report(&mut io::stdout().lock()) {
        // A reader that closed the pipe (`… | head`) has all it wants.
        Err(err) if err.kind() != io::ErrorKind::BrokenPipe => {
            eprintln!("cannot write the output: {err}");
            ExitCode::FAILURE
        }
        _ => ExitCode::SUCCESS,
    }
}

fn write_report(out: &mut impl Write) -> io::Result<()> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let arg = |i: usize, default| args.get(i).and_then(|s| s.parse().ok()).unwrap_or(default);
    let base = DatasetSpec::from_variant(&DatasetVariant::table4("kmeans-base"));
    let (points, dims, clusters) = (arg(0, base.points), arg(1, base.dims), arg(2, base.clusters));

    let spec = DatasetSpec { points, dims, clusters, ..base };
    writeln!(out, "generating data set: N = {points}, D = {dims}, C = {clusters}")?;
    let data = spec.generate();

    let max_threads = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(4);
    let sweep = default_thread_sweep(max_threads.min(16));
    writeln!(out, "running instrumented kmeans at thread counts {sweep:?}\n")?;

    let job = ClusteringWorkload::of_kind(WorkloadKind::KMeans, data);
    let runs: Vec<MeasuredRun> =
        run_sweep(&job, &sweep).iter().map(RunProfile::to_measured_run).collect();
    let accounting = RunAccounting::from_runs(&runs).expect("sweep contains a single-thread run");

    writeln!(
        out,
        "{:>8} {:>12} {:>12} {:>14} {:>14}",
        "threads", "total (ms)", "speedup", "serial (us)", "serial growth"
    )?;
    for ((run, &(_, speedup)), &(_, growth)) in
        runs.iter().zip(&accounting.speedups).zip(&accounting.serial_multipliers)
    {
        writeln!(
            out,
            "{:>8} {:>12.2} {:>12.2} {:>14.1} {:>14.2}",
            run.threads,
            run.total_seconds() * 1e3,
            speedup,
            run.serial_seconds() * 1e6,
            growth,
        )?;
    }

    let fored = accounting.fored(&GrowthFunction::Linear);
    writeln!(out, "\nextracted parameters (paper Table II format):")?;
    writeln!(out, "  f      = {:.6}", accounting.f)?;
    writeln!(out, "  serial = {:.4} %", accounting.serial_fraction * 100.0)?;
    writeln!(out, "  fcon   = {:.1} % of serial", accounting.fcon * 100.0)?;
    writeln!(out, "  fred   = {:.1} % of serial", accounting.fred * 100.0)?;
    writeln!(out, "  fored  = {:.1} %", fored * 100.0)?;

    let params = AppParams::new("kmeans", accounting.f, accounting.fcon, fored, 0.0)
        .expect("accounted fractions are valid");
    let model = ExtendedModel::new(params.clone(), GrowthFunction::Linear, PerfModel::Pollack);
    let budget = ChipBudget::paper_default();
    let best = best_symmetric(&model, budget).unwrap();
    let amdahl = amdahl_speedup(params.f, 256.0).unwrap();
    writeln!(out, "\nmodel projection to a 256-BCE chip:")?;
    writeln!(out, "  Amdahl's Law @ 256 unit cores : {amdahl:8.1}")?;
    writeln!(
        out,
        "  extended model, best design   : {:8.1}  (r = {} BCE, {} cores)",
        best.speedup, best.area, best.cores
    )?;
    Ok(())
}
