//! Symmetric vs asymmetric CMPs under growing merging overhead, including the
//! communication-aware model (the narrative of the paper's Sections V-D/V-E).
//!
//! ```text
//! cargo run --release --example acmp_vs_cmp
//! ```

use std::io::{self, Write};
use std::process::ExitCode;

use merging_phases::model::explore::{
    asymmetric_curve_comm, best_asymmetric, best_symmetric, symmetric_curve_comm,
};
use merging_phases::model::params::AppClass;
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
    let budget = ChipBudget::paper_default();

    writeln!(out, "256-BCE chip, perf(r) = sqrt(r), linear reduction growth\n")?;
    writeln!(
        out,
        "{:<28} {:>10} {:>8} {:>10} {:>8} {:>8} {:>10}",
        "application class", "CMP best", "@r", "ACMP best", "@rl", "r", "advantage"
    )?;
    for class in AppClass::table3_all() {
        let model = ExtendedModel::new(class.params(), GrowthFunction::Linear, PerfModel::Pollack);
        let sym = best_symmetric(&model, budget).unwrap();
        let (small_r, asym) = best_asymmetric(&model, budget).unwrap();
        writeln!(
            out,
            "{:<28} {:>10.1} {:>8} {:>10.1} {:>8} {:>8} {:>9.2}x",
            class.name(),
            sym.speedup,
            sym.area,
            asym.speedup,
            asym.area,
            small_r,
            asym.speedup / sym.speedup
        )?;
    }

    // The communication-aware refinement for the non-embarrassingly-parallel,
    // moderate-constant class (paper Figure 7).
    let class = AppClass {
        embarrassingly_parallel: false,
        high_constant: false,
        high_reduction_overhead: true,
    };
    let comm = CommModel::paper_figure7(class.params()).unwrap();
    let sym = symmetric_curve_comm(&comm, budget, "symmetric").unwrap();
    let sym_peak = sym.peak().unwrap();
    let asym_peaks: Vec<(f64, f64)> = [1.0, 4.0, 16.0]
        .iter()
        .map(|&r| {
            let c = asymmetric_curve_comm(&comm, budget, r, format!("r={r}")).unwrap();
            (r, c.peak().unwrap().speedup)
        })
        .collect();

    writeln!(out, "\nwith the 2-D-mesh communication model ({}):", class.name())?;
    writeln!(
        out,
        "  best symmetric CMP : speedup {:.1} at r = {}",
        sym_peak.speedup, sym_peak.area
    )?;
    for (r, s) in &asym_peaks {
        writeln!(out, "  best ACMP (r = {r:>2})  : speedup {s:.1}")?;
    }
    let best_asym = asym_peaks.iter().map(|&(_, s)| s).fold(f64::MIN, f64::max);
    writeln!(
        out,
        "  ACMP advantage      : {:.2}x  (compare ~2x under constant-serial Amdahl)",
        best_asym / sym_peak.speedup
    )?;
    Ok(())
}
