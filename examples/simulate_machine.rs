//! Run a clustering phase program on the abstract CMP timing simulator and
//! report per-phase cycles — the stand-in for the paper's SESC experiments.
//!
//! ```text
//! cargo run --release --example simulate_machine -- [kmeans|fuzzy|hop] [cores]
//! cargo run --release --example simulate_machine -- hop 16
//! ```

use std::io::{self, Write};
use std::process::ExitCode;

use merging_phases::cmpsim::{
    fuzzy_program, hop_program, kmeans_program, simulate, Machine, WorkloadShape,
};
use merging_phases::model::params::DatasetVariant;
use merging_phases::model::phase::PhaseKind;
use merging_phases::par::ReductionStrategy;

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
    let app = args.first().map(String::as_str).unwrap_or("kmeans").to_string();
    let cores: usize = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(16);

    let shape = |label| WorkloadShape::from_variant(&DatasetVariant::table4(label));
    let program = match app.as_str() {
        "kmeans" => kmeans_program(&shape("kmeans-base"), ReductionStrategy::SerialLinear),
        "fuzzy" => fuzzy_program(&shape("fuzzy-base"), ReductionStrategy::SerialLinear),
        "hop" => hop_program(&shape("hop-default"), ReductionStrategy::SerialLinear, 4),
        other => {
            eprintln!("unknown application `{other}` (expected kmeans, fuzzy or hop)");
            std::process::exit(1);
        }
    };

    writeln!(out, "simulating `{app}` on the Table I machine at 1 and {cores} cores\n")?;

    for &c in &[1usize, cores] {
        let machine = Machine::table1(c);
        let report = simulate(&program, &machine);
        writeln!(out, "--- {c} core(s): total {:.3e} cycles", report.total_cycles())?;
        for kind in [
            PhaseKind::Parallel,
            PhaseKind::SerialConstant,
            PhaseKind::Reduction,
            PhaseKind::Communication,
        ] {
            let cycles = report.cycles_in(kind);
            if cycles > 0.0 {
                writeln!(
                    out,
                    "    {:<14} {:>12.3e} cycles  ({:5.2} % of total)",
                    kind.name(),
                    cycles,
                    100.0 * cycles / report.total_cycles()
                )?;
            }
        }
        writeln!(
            out,
            "    serial section (constant + merge) = {:.4} % of total\n",
            100.0 * report.serial_cycles() / report.total_cycles()
        )?;
    }

    let base = simulate(&program, &Machine::table1(1)).total_cycles();
    let scaled = simulate(&program, &Machine::table1(cores)).total_cycles();
    writeln!(out, "speedup at {cores} cores: {:.2}x", base / scaled)?;
    Ok(())
}
