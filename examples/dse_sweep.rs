//! Large-scale design-space exploration through the `mp-dse` engine.
//!
//! Sweeps more than 10⁵ (application × machine × strategy) scenarios through
//! the analytic extended-model backend on all available cores, then prints
//! the best designs, the Pareto frontier of speedup against core count, and
//! re-sweeps bit-identically. The analytic model is cheaper than a cache
//! probe, so it does not memoise and the re-sweep recomputes.
//!
//! ```text
//! cargo run --release --example dse_sweep
//! ```

use std::io::{self, Write};
use std::process::ExitCode;

use merging_phases::dse::prelude::*;
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
    // Eleven applications: the eight Table III classes plus Table II's
    // measured kmeans / fuzzy / hop parameter sets.
    let apps = AppParams::paper_catalog();

    // A fine symmetric grid (512 core sizes), an asymmetric grid, three
    // budgets, four growth laws and two performance models: > 10⁵ scenarios.
    let space = ScenarioSpace::new()
        .with_apps(apps)
        .with_budgets(vec![256.0, 512.0, 1024.0])
        .clear_designs()
        .add_symmetric_grid(merging_phases::dse::scenario::log_spaced(512, 256.0))
        .add_asymmetric_grid([1.0, 2.0, 4.0, 8.0], [2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0])
        .with_growths(vec![
            GrowthFunction::Constant,
            GrowthFunction::Linear,
            GrowthFunction::Logarithmic,
            GrowthFunction::Superlinear(1.55),
        ])
        .with_perfs(vec![PerfModel::Pollack, PerfModel::Power(0.75)]);
    assert!(space.len() > 100_000, "space holds {} scenarios", space.len());

    let engine = Engine::with_all_cores();
    let result = engine.sweep(&space, &AnalyticBackend, &SweepConfig::default());
    writeln!(
        out,
        "swept {} scenarios ({} valid) on {} thread(s) in {:.3}s ({:.0}/s)",
        result.stats.scenarios,
        result.stats.valid,
        result.stats.threads,
        result.stats.elapsed_seconds,
        result.stats.scenarios as f64 / result.stats.elapsed_seconds.max(1e-9),
    )?;

    writeln!(out, "\ntop 5 designs:")?;
    for (rank, record) in TopK::new(5).reduce(&result.records).iter().enumerate() {
        let s = space.scenario(record.index);
        writeln!(
            out,
            "  {}. speedup {:>8.2}  {} under {} BCE ({} cores), {} growth, {}",
            rank + 1,
            record.speedup,
            match s.design {
                ChipSpec::Symmetric { r } => format!("symmetric r={r:.2}"),
                ChipSpec::Asymmetric { r, rl } => format!("asymmetric r={r:.0} rl={rl:.0}"),
            },
            s.budget.total_bce(),
            record.cores.round(),
            s.growth.name(),
            s.perf.name(),
        )?;
    }

    let frontier = Pareto::new(&space, CostAxis::Cores).reduce(&result.records);
    writeln!(out, "\nPareto frontier (speedup vs cores): {} points", frontier.len())?;
    for record in frontier.iter().take(8) {
        writeln!(out, "  {:>8.2} cores -> speedup {:>8.2}", record.cores, record.speedup)?;
    }

    // A second sweep reproduces the first bit-for-bit. The analytic model
    // evaluates a scenario in about a nanosecond, less than a cache probe
    // costs, so it does not memoise: the repeat is recomputed (0 hits).
    let again = engine.sweep(&space, &AnalyticBackend, &SweepConfig::default());
    let identical = result
        .records
        .iter()
        .zip(again.records.iter())
        .all(|(a, b)| a.speedup.to_bits() == b.speedup.to_bits());
    writeln!(
        out,
        "\nre-sweep: {} cache hits, {} misses in {:.3}s — bit-identical: {identical}",
        again.stats.cache_hits, again.stats.cache_misses, again.stats.elapsed_seconds,
    )?;
    Ok(())
}
