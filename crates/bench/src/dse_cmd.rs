//! The `repro dse` subcommand: a large-scale design-space exploration.
//!
//! Sweeps every Table II application and Table III class over fine-grained
//! symmetric and asymmetric core grids, three chip budgets, four
//! reduction-overhead growth laws and three core performance models —
//! ≥ 200 000 scenarios — through the `mp-dse` engine on all available cores,
//! then reports the top designs, per-axis optima and the Pareto frontier of
//! speedup against core count, and exports the full sweep as JSON and CSV.
//!
//! The sweep runs twice and the second pass must reproduce the first
//! bit-for-bit, which the command verifies and reports. For a backend that
//! memoises (`sim`, `comm`) the second pass is answered entirely from the
//! cache; the analytic and measured backends recompute a scenario for less
//! than a cache probe costs, so they do not memoise, their second pass
//! recomputes and `rescan_hits` reads 0. Only the two exports are written: a
//! cold full sweep costs less than parsing a persisted cache back would, so
//! the cache dies with the process and a re-run rewrites the same records.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use mp_dse::prelude::*;
use mp_model::calibrate::{CalibratedParams, MeasuredRun};
use mp_model::growth::GrowthFunction;
use mp_model::params::AppParams;
use mp_model::perf::PerfModel;
use mp_model::topology::Topology;
use mp_profile::{render_table, TableRow};

/// The `dse` flags that consume a value token. The `repro` binary's
/// subcommand scanner uses this to step over flag values when the flags
/// precede the subcommand name, so the list lives here next to `parse`.
pub const VALUE_FLAGS: &[&str] = &["--backend", "--out", "--top", "--threads", "--trace"];

/// The subcommand's usage, printed after a parse error and in `repro`'s
/// own usage.
pub const USAGE: &str = "repro dse [--backend analytic|comm|sim|measured] [--out DIR] [--top K] \
     [--threads N] [--trace PATH] [--quick] [--json]";

/// Options of one `dse` invocation.
#[derive(Debug)]
struct Options {
    backend: String,
    out_dir: PathBuf,
    quick: bool,
    json: bool,
    threads: Option<usize>,
    top_k: usize,
    trace: Option<PathBuf>,
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut options = Options {
        backend: "analytic".to_string(),
        out_dir: PathBuf::from("target/dse"),
        quick: false,
        json: false,
        threads: None,
        top_k: 10,
        trace: None,
    };
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let arg = arg.as_str();
        if VALUE_FLAGS.contains(&arg) {
            // Value-taking flags are routed through VALUE_FLAGS so the
            // `repro` subcommand scanner (which must step over their values)
            // cannot drift out of sync: a flag handled here but missing from
            // the list would never reach this branch.
            let value = iter.next().ok_or_else(|| format!("{arg} needs a value"))?.clone();
            match arg {
                "--backend" => options.backend = value,
                "--out" => options.out_dir = PathBuf::from(value),
                "--top" => {
                    options.top_k = crate::cli::parse_count(arg, &value, 1, crate::cli::MAX_COUNT)?;
                }
                "--threads" => {
                    options.threads = Some(crate::cli::parse_parallelism(arg, &value)?);
                }
                "--trace" => options.trace = Some(PathBuf::from(value)),
                other => unreachable!("{other} is listed in VALUE_FLAGS but unhandled"),
            }
        } else {
            match arg {
                "--json" => options.json = true,
                "--quick" => options.quick = true,
                other => return Err(format!("unknown dse option `{other}`")),
            }
        }
    }
    Ok(options)
}

/// The sweep's application axis: Table III's eight synthetic classes plus the
/// three measured Table II applications.
fn applications() -> Vec<AppParams> {
    AppParams::paper_catalog()
}

/// Deterministic synthetic calibrations of the paper catalogue for the
/// `measured` backend: each application's parameters are converted into the
/// section times an ideal instrumented run would report at 1–16 threads
/// (linear merge growth) and re-fitted through [`CalibratedParams::fit`].
/// This exercises the full calibration-driven evaluation path — parameter
/// lookup, fitted growth, extended model — without running workloads, so the
/// `measured` throughput numbers are reproducible on any host.
pub fn synthetic_calibrations() -> Vec<CalibratedParams> {
    applications()
        .iter()
        .map(|app| {
            let s = app.serial_fraction();
            let runs: Vec<MeasuredRun> = [1usize, 2, 4, 8, 16]
                .iter()
                .map(|&p| {
                    MeasuredRun::new(
                        p,
                        app.f / p as f64,
                        s * app.split.fcon,
                        s * app.split.fred * (1.0 + app.fored * (p as f64 - 1.0)),
                    )
                })
                .collect();
            CalibratedParams::fit(&app.name, &runs).expect("catalogue calibrations fit")
        })
        .collect()
}

/// Build the exploration space. The full grid is ≥ 200 000 scenarios; the
/// quick grid (used by tests) is a few thousand.
/// The analytic exploration space of `repro dse` (the 214k-scenario
/// space in full mode), shared with `repro job --dse-space` so durable
/// jobs can run the headline warm-restart experiment over it.
pub fn experiment_space(quick: bool) -> ScenarioSpace {
    let mut options = parse(&[]).expect("defaults parse");
    options.quick = quick;
    build_space(&options)
}

fn build_space(options: &Options) -> ScenarioSpace {
    let (sym_points, budgets) =
        if options.quick { (48usize, vec![256.0]) } else { (512usize, vec![128.0, 256.0, 512.0]) };
    // Log-spaced per-core areas in [1, 128] BCE — valid under every budget.
    let max_r: f64 = 128.0;
    let sym = mp_dse::scenario::log_spaced(sym_points, max_r);
    let pow2 = |limit: f64| {
        std::iter::successors(Some(1.0f64), move |r| (r * 2.0 <= limit).then_some(r * 2.0))
    };
    let mut space = ScenarioSpace::new()
        .with_apps(applications())
        .with_budgets(budgets)
        .clear_designs()
        .add_symmetric_grid(sym)
        .add_asymmetric_grid([1.0, 2.0, 4.0, 8.0, 16.0], pow2(128.0).skip(1))
        .with_growths(vec![
            GrowthFunction::Constant,
            GrowthFunction::Linear,
            GrowthFunction::Logarithmic,
            GrowthFunction::Superlinear(1.55),
        ])
        .with_perfs(vec![PerfModel::Pollack, PerfModel::Power(0.75), PerfModel::Linear]);
    if options.backend == "comm" {
        // The comm backend reads the growth axis as the reduction-computation
        // growth and explores the interconnect on the topology axis.
        space = space.with_topologies(vec![
            Topology::Mesh2D,
            Topology::Torus2D,
            Topology::Crossbar,
            Topology::Ideal,
        ]);
    }
    if options.backend == "sim" {
        // The simulator derives its own overhead growth and core performance,
        // so sweeping those axes would just repeat every (expensive)
        // simulation; its meaningful strategy axis is the merge
        // implementation. Its machines are also discrete (floor(budget / r)
        // cores), so the fractional log-spaced grid would simulate duplicate
        // machines under different labels — sweep integer core sizes instead.
        let sym_limit = if options.quick { 48usize } else { 128 };
        space = space
            .clear_designs()
            .add_symmetric_grid((1..=sym_limit).map(|r| r as f64))
            .add_asymmetric_grid([1.0, 2.0, 4.0, 8.0, 16.0], pow2(128.0).skip(1))
            .with_growths(vec![GrowthFunction::Linear])
            .with_perfs(vec![PerfModel::Pollack])
            .with_reductions(mp_par::ReductionStrategy::all().to_vec());
    }
    space
}

/// The table-row label of `record`; `labels` is `space.labels()`.
pub(crate) fn scenario_label(
    space: &ScenarioSpace,
    labels: &AxisLabels,
    record: &EvalRecord,
) -> String {
    let ix = space.decode(record.index);
    let design = match space.designs()[ix.design] {
        ChipSpec::Symmetric { r } => format!("sym r={r:.2}"),
        ChipSpec::Asymmetric { r, rl } => format!("asym r={r:.0} rl={rl:.0}"),
    };
    let mut label = format!(
        "{} | {} | b={} | {} | {}",
        labels.app[ix.app],
        design,
        labels.budget[ix.budget],
        labels.growth[ix.growth],
        labels.perf[ix.perf],
    );
    // The strategy axes only appear when they are actually swept, so rows
    // stay compact for the analytic backend but remain unambiguous for the
    // sim (reduction) and comm (topology) sweeps.
    if labels.reduction.len() > 1 {
        label.push_str(&format!(" | {}", labels.reduction[ix.reduction]));
    }
    if labels.topology.len() > 1 {
        label.push_str(&format!(" | {}", labels.topology[ix.topology]));
    }
    label
}

pub(crate) fn record_row(label: String, record: &EvalRecord) -> TableRow {
    TableRow::new(label)
        .with("speedup", record.speedup)
        .with("cores", record.cores)
        .with("area", record.area)
}

/// Entry point of the `dse` subcommand.
pub fn run(args: &[String]) -> ExitCode {
    let options = match parse(args) {
        Ok(options) => options,
        Err(message) => {
            eprintln!("{message}");
            eprintln!("usage: {USAGE}");
            return ExitCode::FAILURE;
        }
    };

    let backend = match crate::cli::backend_by_name(&options.backend) {
        Ok(backend) => backend,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };
    // The calibrated application axis, derived straight from the same
    // deterministic calibrations the shared constructor parameterised the
    // backend with (no second backend build).
    let measured_apps = (options.backend == "measured").then(|| {
        synthetic_calibrations().iter().map(|c| c.app_params().clone()).collect::<Vec<_>>()
    });

    let mut space = build_space(&options);
    if let Some(apps) = measured_apps {
        // The calibrations supply both the application parameters and the
        // growth function, so the space sweeps the calibrated applications
        // and the growth axis collapses to a single label the backend
        // ignores anyway.
        space = space.with_apps(apps).with_growths(vec![GrowthFunction::Linear]);
    }
    let engine = match options.threads {
        Some(threads) => Engine::new(threads),
        None => Engine::with_all_cores(),
    };
    let config = SweepConfig::default();

    // Profiling is opt-in per run: spans cost an allocation each, so the
    // engine's recorder only arms when an export path was requested.
    let profiler = engine.registry().profiler();
    profiler.set_enabled(options.trace.is_some());

    let first = engine.sweep(&space, backend.as_ref(), &config);
    // Second pass: answered from the cache when the backend memoises,
    // recomputed when it does not; either way it must reproduce the first
    // pass bit-for-bit.
    let second = engine.sweep(&space, backend.as_ref(), &config);
    let identical = crate::cli::records_identical(&first.records, &second.records);

    let top = TopK::new(options.top_k).reduce(&first.records);
    let optima = per_axis_optima(&space, &first.records);
    let frontier = Pareto::new(&space, CostAxis::Cores).reduce(&first.records);

    if let Some(trace_path) = &options.trace {
        // Both passes' spans (table builds and batches) in one timeline,
        // viewable at chrome://tracing or Perfetto.
        profiler.set_enabled(false);
        let spans = profiler.take();
        if let Some(parent) = trace_path.parent().filter(|p| !p.as_os_str().is_empty()) {
            if let Err(e) = std::fs::create_dir_all(parent) {
                eprintln!("trace export failed: cannot create {}: {e}", parent.display());
                return ExitCode::FAILURE;
            }
        }
        if let Err(e) = std::fs::write(trace_path, mp_obs::profile::chrome_trace_json(&spans)) {
            eprintln!("trace export failed: {e}");
            return ExitCode::FAILURE;
        }
        if !options.json {
            println!("  trace: {} spans exported to {}", spans.len(), trace_path.display());
        }
    }

    if let Err(e) = export_sweep(&options.out_dir, &space, &first) {
        eprintln!("export failed: {e}");
        return ExitCode::FAILURE;
    }

    if options.json {
        println!(
            "{{\"experiment\":\"dse\",\"backend\":\"{}\",\"scenarios\":{},\"valid\":{},\"threads\":{},\"elapsed_seconds\":{},\"rescan_hits\":{},\"identical\":{},\"frontier_size\":{},\"best_speedup\":{}}}",
            options.backend,
            first.stats.scenarios,
            first.stats.valid,
            first.stats.threads,
            first.stats.elapsed_seconds,
            second.stats.cache_hits,
            identical,
            frontier.len(),
            // JSON has no NaN: an empty top-k list emits null.
            top.first()
                .map(|r| r.speedup.to_string())
                .unwrap_or_else(|| "null".to_string()),
        );
        return if identical { ExitCode::SUCCESS } else { ExitCode::FAILURE };
    }

    println!("design-space exploration — backend `{}`", options.backend);
    println!(
        "  swept {} scenarios ({} valid) on {} thread(s) in {:.3}s ({:.0} scenarios/s)",
        first.stats.scenarios,
        first.stats.valid,
        first.stats.threads,
        first.stats.elapsed_seconds,
        first.stats.scenarios as f64 / first.stats.elapsed_seconds.max(1e-9),
    );
    println!(
        "  first pass: {} cache hits, {} misses",
        first.stats.cache_hits, first.stats.cache_misses,
    );
    println!(
        "  repeat pass: {} cache hits, {} misses in {:.3}s{} — outputs bit-identical: {}",
        second.stats.cache_hits,
        second.stats.cache_misses,
        second.stats.elapsed_seconds,
        if backend.memoise() { "" } else { " (recomputed: the backend does not memoise)" },
        identical,
    );
    println!(
        "  exports: {} (JSON), {} (CSV)",
        options.out_dir.join("sweep.json").display(),
        options.out_dir.join("sweep.csv").display(),
    );
    println!();

    let labels = space.labels();
    let label = |record: &EvalRecord| scenario_label(&space, &labels, record);
    let top_rows: Vec<TableRow> = top
        .iter()
        .enumerate()
        .map(|(rank, record)| record_row(format!("{:>2}. {}", rank + 1, label(record)), record))
        .collect();
    println!("{}", render_table("top designs by speedup", &top_rows, 2));

    let optima_rows: Vec<TableRow> =
        optima.iter().map(|o| record_row(format!("{}={}", o.axis, o.value), &o.record)).collect();
    println!("{}", render_table("per-axis optima", &optima_rows, 2));

    let frontier_rows: Vec<TableRow> =
        frontier.iter().map(|record| record_row(label(record), record)).collect();
    println!(
        "{}",
        render_table(
            &format!("Pareto frontier (speedup vs cores, {} points)", frontier.len()),
            &frontier_rows,
            2,
        )
    );

    if identical {
        ExitCode::SUCCESS
    } else {
        eprintln!("the repeat sweep diverged from the first pass");
        ExitCode::FAILURE
    }
}

/// Export a sweep to `dir/sweep.{json,csv}`.
pub fn export_sweep(
    dir: &Path,
    space: &ScenarioSpace,
    result: &SweepResult,
) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    // The writers hand the files large chunks themselves, so they get the
    // bare `File`s. The files share no mutable state: JSON streams on a
    // scoped thread, CSV on the caller's, and both have finished (or failed)
    // before this returns.
    let create = |name: &str| std::fs::File::create(dir.join(name));
    std::thread::scope(|scope| {
        let json = scope.spawn(|| {
            write_json(&mut create("sweep.json")?, space, &result.records, &result.stats)
        });
        let csv =
            create("sweep.csv").and_then(|mut csv| write_csv(&mut csv, space, &result.records));
        json.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic))?;
        csv
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_space_exceeds_one_hundred_thousand_scenarios() {
        let options = parse(&[]).unwrap();
        let space = build_space(&options);
        assert!(space.len() >= 100_000, "got {}", space.len());
    }

    #[test]
    fn quick_space_is_small_but_complete() {
        let options = parse(&["--quick".to_string()]).unwrap();
        let space = build_space(&options);
        assert!(space.len() < 100_000);
        assert!(space.len() > 1_000);
        let engine = Engine::new(1);
        let result = engine.sweep(&space, &AnalyticBackend, &SweepConfig::default());
        // Every scenario of the quick grid fits its budget.
        assert_eq!(result.stats.valid, space.len());
    }

    /// Every float cell of the full space's `sweep.csv` — `r`, `rl`, `cores`,
    /// `area` and the speedup of each of its 214k scenarios — is `std`'s
    /// spelling of the value. `sweep.json` spells through the same function.
    #[test]
    #[ignore = "sweeps and exports the full space; CI runs it in release"]
    fn shortest_spelling_of_the_full_space_matches_std() {
        let space = experiment_space(false);
        let result = Engine::new(2).sweep(&space, &AnalyticBackend, &SweepConfig::default());
        let mut csv = Vec::new();
        write_csv(&mut csv, &space, &result.records).unwrap();
        let text = String::from_utf8(csv).unwrap();
        let spell = |v: f64| if v.is_finite() { format!("{v}") } else { String::new() };
        let mut rows = 0;
        for (line, record) in text.lines().skip(1).zip(&result.records) {
            let (r, rl) = match space.scenario(record.index).design {
                ChipSpec::Symmetric { r } => (r, f64::NAN),
                ChipSpec::Asymmetric { r, rl } => (r, rl),
            };
            let cells: Vec<&str> = line.split(',').collect();
            let floats = [cells[4], cells[5], cells[6], cells[7], cells[12]];
            let expected = [r, rl, record.cores, record.area, record.speedup].map(spell);
            assert_eq!(floats, expected.each_ref().map(String::as_str), "row {line}");
            rows += 1;
        }
        assert_eq!(rows, space.len());
        assert!(rows >= 200_000, "{rows} rows");
    }

    #[test]
    fn parse_rejects_unknown_options() {
        assert!(parse(&["--bogus".to_string()]).is_err());
        // The removed scalar switch is an unknown option like any other:
        // `MP_SIMD_FORCE_SCALAR` is the one external override.
        // So is the removed throughput/allocation report: layerbench's
        // `dse_oneshot` and `tests/alloc_free.rs` own those numbers.
        for removed in [format!("--force-{}", "scalar"), "--profile".to_string()] {
            let message = parse(&[removed]).unwrap_err();
            assert!(message.contains("unknown dse option"), "{message}");
        }
        assert!(parse(&["--backend".to_string()]).is_err());
        let options =
            parse(&["--backend".to_string(), "sim".to_string(), "--quick".to_string()]).unwrap();
        assert_eq!(options.backend, "sim");
        assert!(options.quick);
        assert!(options.trace.is_none());
        let options = parse(&["--trace".to_string(), "target/trace.json".to_string()]).unwrap();
        assert_eq!(options.trace.as_deref(), Some(Path::new("target/trace.json")));
    }

    #[test]
    fn parse_rejects_zero_and_oversized_counts() {
        let args = |flag: &str, value: &str| vec![flag.to_string(), value.to_string()];
        let error = parse(&args("--threads", "0")).unwrap_err();
        assert!(error.contains("--threads") && error.contains("at least 1"), "{error}");
        let error = parse(&args("--threads", "1000000")).unwrap_err();
        assert!(error.contains("at most"), "{error}");
        let error = parse(&args("--top", "0")).unwrap_err();
        assert!(error.contains("--top") && error.contains("at least 1"), "{error}");
        // usize overflow surfaces as a clear integer error, not a panic.
        let error = parse(&args("--top", "18446744073709551616")).unwrap_err();
        assert!(error.contains("integer"), "{error}");
    }
}
