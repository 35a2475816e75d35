//! Design-space exploration for a chosen application class (Figures 4/5 style).
//!
//! ```text
//! cargo run --release --example design_space -- [f] [fcon%] [fored%]
//! cargo run --release --example design_space -- 0.99 60 80
//! ```
//!
//! Prints the symmetric speedup curve (per-core area sweep) under linear and
//! logarithmic reduction growth, and the asymmetric curves (large-core area
//! sweep) for small-core areas 1, 4 and 16 BCE.

use std::io::{self, Write};
use std::process::ExitCode;

use merging_phases::model::explore::{asymmetric_curve, symmetric_curve};
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
    let args: Vec<String> = std::env::args().skip(1).collect();
    let f: f64 = args.first().and_then(|s| s.parse().ok()).unwrap_or(0.99);
    let fcon_pct: f64 = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(60.0);
    let fored_pct: f64 = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(80.0);

    let params = AppParams::new("custom", f, fcon_pct / 100.0, fored_pct / 100.0, 0.0)
        .expect("invalid parameters: f and fcon% must be fractions, fored% non-negative");
    let budget = ChipBudget::paper_default();

    writeln!(
        out,
        "class: f = {f}, fcon = {fcon_pct}% of serial, fored = {fored_pct}%  (256-BCE chip, perf(r) = sqrt(r))\n"
    )?;

    writeln!(out, "symmetric CMPs — speedup vs per-core area r:")?;
    writeln!(out, "{:>8} {:>8} {:>12} {:>12}", "r", "cores", "linear", "log")?;
    let linear = ExtendedModel::new(params.clone(), GrowthFunction::Linear, PerfModel::Pollack);
    let log = ExtendedModel::new(params.clone(), GrowthFunction::Logarithmic, PerfModel::Pollack);
    let lin_curve = symmetric_curve(&linear, budget, "linear").unwrap();
    let log_curve = symmetric_curve(&log, budget, "log").unwrap();
    for (a, b) in lin_curve.points.iter().zip(log_curve.points.iter()) {
        writeln!(out, "{:>8} {:>8} {:>12.1} {:>12.1}", a.area, a.cores, a.speedup, b.speedup)?;
    }
    let peak = lin_curve.peak().unwrap();
    writeln!(out, "--> peak (linear growth): speedup {:.1} at r = {}\n", peak.speedup, peak.area)?;

    writeln!(out, "asymmetric CMPs (linear growth) — speedup vs large-core area rl:")?;
    write!(out, "{:>8}", "rl")?;
    for r in [1.0, 4.0, 16.0] {
        write!(out, " {:>11}", format!("r={r}"))?;
    }
    writeln!(out)?;
    let curves: Vec<_> = [1.0, 4.0, 16.0]
        .iter()
        .map(|&r| asymmetric_curve(&linear, budget, r, format!("r={r}")).unwrap())
        .collect();
    for point in &curves[0].points {
        write!(out, "{:>8}", point.area)?;
        for curve in &curves {
            match curve.points.iter().find(|p| p.area == point.area) {
                Some(p) => write!(out, " {:>11.1}", p.speedup)?,
                None => write!(out, " {:>11}", "-")?,
            }
        }
        writeln!(out)?;
    }
    let best = curves
        .iter()
        .filter_map(|c| c.peak().map(|p| (c.label.clone(), p)))
        .max_by(|a, b| a.1.speedup.partial_cmp(&b.1.speedup).unwrap())
        .unwrap();
    writeln!(
        out,
        "--> best asymmetric design: {} with rl = {} (speedup {:.1})",
        best.0, best.1.area, best.1.speedup
    )?;
    Ok(())
}
