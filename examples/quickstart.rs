//! Quickstart: evaluate the merging-phase speedup model for one application.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! Takes the kmeans parameters of the paper's Table II, compares Amdahl's Law
//! against the extended model on a 256-BCE chip, and reports the best
//! symmetric and asymmetric designs under both assumptions.

use std::io::{self, Write};
use std::process::ExitCode;

use merging_phases::model::explore;
use merging_phases::model::hill_marty;
use merging_phases::prelude::*;

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
    let params = AppParams::table2_kmeans();
    let budget = ChipBudget::paper_default();

    writeln!(
        out,
        "application: {} (f = {}, fcon = {:.0}%, fred = {:.0}%, fored = {:.0}%)",
        params.name,
        params.f,
        params.split.fcon * 100.0,
        params.split.fred * 100.0,
        params.fored * 100.0,
    )?;
    writeln!(out)?;

    // What plain Amdahl's Law promises on 256 unit cores.
    let amdahl = amdahl_speedup(params.f, 256.0).unwrap();
    writeln!(out, "Amdahl's Law, 256 unit cores:            speedup = {amdahl:7.1}")?;

    // What the extended model (linear reduction growth) predicts instead.
    let model = ExtendedModel::new(params.clone(), GrowthFunction::Linear, PerfModel::Pollack);
    let extended = model.speedup_unit_cores(256.0).unwrap();
    writeln!(out, "with merging-phase overhead, 256 cores:  speedup = {extended:7.1}")?;
    writeln!(out, "overestimation factor:                   {:.2}x", amdahl / extended)?;
    writeln!(out)?;

    // Best symmetric design under each model.
    let hm_best = budget
        .power_of_two_core_sizes()
        .into_iter()
        .map(|r| {
            let d = SymmetricDesign::new(budget, r).unwrap();
            (r, hill_marty::symmetric_speedup(params.f, &d, &PerfModel::Pollack).unwrap())
        })
        .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
        .unwrap();
    let ext_best = explore::best_symmetric(&model, budget).unwrap();
    writeln!(
        out,
        "best symmetric CMP (Hill-Marty):  r = {:>3}  speedup = {:7.1}",
        hm_best.0, hm_best.1
    )?;
    writeln!(
        out,
        "best symmetric CMP (extended):    r = {:>3}  speedup = {:7.1}   ({} cores)",
        ext_best.area, ext_best.speedup, ext_best.cores
    )?;

    // Best asymmetric design under the extended model.
    let (small_r, asym_best) = explore::best_asymmetric(&model, budget).unwrap();
    writeln!(
        out,
        "best asymmetric CMP (extended):   rl = {:>3} r = {:>2}  speedup = {:7.1}",
        asym_best.area, small_r, asym_best.speedup
    )?;
    writeln!(
        out,
        "ACMP advantage over CMP:          {:.2}x",
        asym_best.speedup / ext_best.speedup
    )?;
    Ok(())
}
