//! `layerbench`: the repository's end-to-end and per-layer benchmark.
//!
//! Two ways to run it (see `README.md`):
//!
//! * **one run** — `--workload W --seed N --seconds S --trace 0|1`, what the
//!   driver calls: one workload in this process, `S` seconds cut into five
//!   rounds, the result as one JSON object on the last line of stdout.
//!   `--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer
//!   ones and writes `out/trace-<W>.json`.
//! * **a set** — no `--seconds`: every workload (or each `--workload` named)
//!   in its own process per round, five rounds interleaved round-robin
//!   across the workloads, then one traced run per workload;
//!   `out/results.json` holds everything. `--check-repeat` runs two untraced
//!   sets back to back and compares them against the declared bounds.

mod child;
mod json;
mod layers;
mod spaces;
mod spec;
mod stats;
mod sys;
mod trace;
mod verify;
mod workloads;

use std::collections::BTreeMap;
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use json::Value;
use spec::MetricSpec;
use trace::Tracer;
use workloads::{Oracle, Workload};

/// Seed of a set when `--seed` is not given.
const DEFAULT_SEED: u64 = 2011;
/// Rounds a run's window is cut into; a metric's value is the median round.
const ROUNDS: usize = 10;
/// Rounds of a set: each is a process of its own, interleaved round-robin
/// across the workloads.
const SET_ROUNDS: usize = 5;
/// A run sets its workload up at least this often, and goes on (up to ten
/// times as often) until set-up has taken `SETUP_SECONDS`; `setup_s` is the
/// median, which for a set-up of a few milliseconds needs the extra samples.
const SETUP_REPEATS: usize = 3;
const SETUP_SECONDS: f64 = 0.5;
/// Length of the traced run of a set, seconds.
const TRACED_SECONDS: u64 = 10;

struct Args {
    workloads: Vec<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    rounds: usize,
    check_repeat: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workloads: Vec::new(),
        seed: DEFAULT_SEED,
        seconds: None,
        trace: false,
        rounds: ROUNDS,
        check_repeat: false,
    };
    let mut iter = std::env::args().skip(1);
    while let Some(flag) = iter.next() {
        let mut value = || iter.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if spec::workload(&name).is_none() {
                    let known: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
                    return Err(format!(
                        "unknown workload `{name}` (expected one of {})",
                        known.join(", ")
                    ));
                }
                args.workloads.push(name);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let seconds: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds.is_finite() && seconds > 0.0) {
                    return Err("--seconds must be positive".to_string());
                }
                args.seconds = Some(seconds);
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got `{other}`")),
                }
            }
            "--rounds" => {
                args.rounds = value()?.parse().map_err(|e| format!("--rounds: {e}"))?;
                if args.rounds == 0 {
                    return Err("--rounds must be at least 1".to_string());
                }
            }
            "--check-repeat" => args.check_repeat = true,
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    if args.seconds.is_some() && args.workloads.len() != 1 {
        return Err(
            "--seconds runs one workload in this process: name it with one --workload".to_string()
        );
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("layerbench: {message}");
            eprintln!(
                "usage: run.sh --workload W --seed N --seconds S --trace 0|1   (one run)\n       \
                 run.sh [--workload W]... [--seed N] [--check-repeat]        (a set)"
            );
            return ExitCode::FAILURE;
        }
    };
    let outcome = match args.seconds {
        Some(seconds) => run_one(&args.workloads[0], args.seed, seconds, args.trace, args.rounds),
        None if args.check_repeat => check_repeat(&args),
        None => run_set(&args),
    };
    match outcome {
        Ok(code) => code,
        Err(message) => {
            eprintln!("layerbench: {message}");
            ExitCode::FAILURE
        }
    }
}

// -------------------------------------------------------------------- one run

/// The result of one run, as printed on its last line.
struct RunResult {
    attempted: u64,
    failed: u64,
    /// `(name, value, unit)` in declaration order.
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl RunResult {
    fn to_json(&self) -> Value {
        let metrics = self.metrics.iter().map(|&(name, value, unit)| {
            (name, json::object([("value", Value::Num(value)), ("unit", json::text(unit))]))
        });
        json::object([
            ("correct", Value::Bool(self.failed == 0)),
            ("attempted", Value::Num(self.attempted as f64)),
            ("failed", Value::Num(self.failed as f64)),
            ("metrics", json::object(metrics)),
        ])
    }
}

fn run_one(
    name: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    rounds: usize,
) -> Result<ExitCode, String> {
    let threads = workloads::default_threads();
    let why = spec::workload(name).expect("validated when parsed").why;
    eprintln!("layerbench: {name} (seed {seed}, {seconds} s, {threads} thread(s)): {why}");
    let result = if trace {
        traced_run(name, seed, seconds, threads)?
    } else {
        end_to_end_run(name, seed, seconds, rounds, threads)?
    };
    for (name, value, unit) in &result.metrics {
        println!("{name} {value} {unit}");
    }
    println!("{}", json::compact(&result.to_json()));
    Ok(ExitCode::SUCCESS)
}

fn traced_run(name: &str, seed: u64, seconds: f64, threads: usize) -> Result<RunResult, String> {
    let (measured, attempted, failed) = layers::run(name, seed, seconds, threads)?;
    let metrics = spec::PER_LAYER.iter().map(|m| (m.name, measured[m.name], m.unit)).collect();
    Ok(RunResult { attempted, failed, metrics })
}

fn end_to_end_run(
    name: &str,
    seed: u64,
    seconds: f64,
    rounds: usize,
    threads: usize,
) -> Result<RunResult, String> {
    let oracle = Oracle::for_workload(name);
    let timed_setup = || {
        let started = Instant::now();
        Workload::setup(name, seed, threads, &oracle).map(|w| (w, started.elapsed().as_secs_f64()))
    };
    // The rounds run on the first set-up, so that what the process has
    // allocated and freed before them — which its high-water RSS remembers —
    // is the same on every run; the repeats that steady `setup_s` come after.
    let (mut workload, first_setup_s) = timed_setup()?;

    // The window is cut into `rounds` rounds; a round runs at least one op,
    // so a workload whose op outlasts a round gets fewer, longer rounds.
    let length = Duration::from_secs_f64(seconds / rounds as f64);
    let window = Instant::now();
    let mut tracers: Vec<Tracer> = (0..workload.callers()).map(|_| Tracer::off()).collect();
    let mut measured: Vec<workloads::Round> = Vec::new();
    while measured.is_empty()
        || window.elapsed().as_secs_f64() + length.as_secs_f64() / 2.0 < seconds
    {
        measured.push(workload.run_round(length, &mut tracers));
    }
    let peak_rss_mb = workload.peak_rss_mb();
    drop(workload);

    // Each repeat is torn down outside the clock.
    let mut setup_s = vec![first_setup_s];
    while setup_s.len() < SETUP_REPEATS
        || (setup_s.len() < 10 * SETUP_REPEATS && setup_s.iter().sum::<f64>() < SETUP_SECONDS)
    {
        setup_s.push(timed_setup()?.1);
    }

    let attempted: u64 = measured.iter().map(|r| r.attempted).sum();
    let failed: u64 = measured.iter().map(|r| r.failed).sum();
    for error in measured.iter().flat_map(|r| &r.errors).take(5) {
        eprintln!("layerbench: {name}: {error}");
    }
    let samples: usize = measured.iter().map(|r| r.latencies_ms.len()).sum();
    eprintln!(
        "layerbench: {name}: {samples} verified ops of {attempted} in {} round(s), {} caller(s)",
        measured.len(),
        tracers.len()
    );
    // A round in which every op failed answered nothing and has no rates.
    let answered: Vec<&workloads::Round> = measured.iter().filter(|r| r.scenarios > 0).collect();
    let median_round = |f: fn(&workloads::Round) -> f64| {
        stats::median(&answered.iter().map(|r| f(r)).collect::<Vec<_>>()).unwrap_or(0.0)
    };
    let values = [
        median_round(workloads::Round::scenarios_per_s),
        median_round(workloads::Round::op_p50_ms),
        median_round(workloads::Round::cpu_ms_per_mscen),
        peak_rss_mb,
        stats::median(&setup_s).expect("set up at least once"),
    ];
    let metrics =
        spec::END_TO_END.iter().zip(values).map(|(m, value)| (m.name, value, m.unit)).collect();
    Ok(RunResult { attempted, failed, metrics })
}

// ---------------------------------------------------------------------- a set

/// What one child run printed on its last line.
struct ChildResult {
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, f64>,
}

/// Run this executable again for one workload and parse its result line. An
/// untraced child is one round of a set: its whole window is that round.
fn child_run(workload: &str, seed: u64, seconds: u64, trace: bool) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate layerbench: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(if trace { ["--trace", "1"] } else { ["--rounds", "1"] })
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run {workload}: {e}"))?;
    if !output.status.success() {
        return Err(format!("{workload} run exited with {}", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().unwrap_or("");
    let result = serde_json::parse(line)
        .map_err(|e| format!("{workload}: unparseable result `{line}`: {e}"))?;
    let metrics = json::get(&result, "metrics")
        .map(json::members)
        .unwrap_or_default()
        .iter()
        .filter_map(|(name, metric)| Some((name.clone(), json::number(metric, "value")?)))
        .collect();
    Ok(ChildResult {
        attempted: json::number(&result, "attempted").unwrap_or(0.0) as u64,
        failed: json::number(&result, "failed").unwrap_or(0.0) as u64,
        metrics,
    })
}

/// The end-to-end numbers of one workload over a set: every round's values
/// per metric, and the ops behind them.
#[derive(Default)]
struct SetEntry {
    rounds: BTreeMap<String, Vec<f64>>,
    attempted: u64,
    failed: u64,
}

impl SetEntry {
    /// The median of the set's rounds.
    fn value(&self, metric: &MetricSpec) -> f64 {
        self.rounds.get(metric.name).and_then(|rounds| stats::median(rounds)).unwrap_or(0.0)
    }
}

fn selected_workloads(args: &Args) -> Vec<&'static spec::WorkloadSpec> {
    spec::WORKLOADS
        .iter()
        .filter(|w| args.workloads.is_empty() || args.workloads.iter().any(|n| n == w.name))
        .collect()
}

/// The untraced pass: five rounds, each workload in its own process per
/// round, round-robin across the workloads so that slow host drift lands on
/// all of them alike.
fn end_to_end_set(args: &Args) -> Result<BTreeMap<&'static str, SetEntry>, String> {
    let mut set: BTreeMap<&'static str, SetEntry> = BTreeMap::new();
    for round in 1..=SET_ROUNDS {
        for workload in selected_workloads(args) {
            eprintln!("layerbench: round {round}/{SET_ROUNDS}: {}", workload.name);
            let result = child_run(workload.name, args.seed, workload.round_seconds, false)?;
            let entry = set.entry(workload.name).or_default();
            entry.attempted += result.attempted;
            entry.failed += result.failed;
            for (metric, value) in result.metrics {
                entry.rounds.entry(metric).or_default().push(value);
            }
        }
    }
    Ok(set)
}

fn print_end_to_end(set: &BTreeMap<&'static str, SetEntry>) {
    for (workload, entry) in set {
        for metric in &spec::END_TO_END {
            println!("{workload} {} {} {}", metric.name, entry.value(metric), metric.unit);
        }
        let failed_share = entry.failed as f64 / entry.attempted.max(1) as f64;
        println!(
            "{workload} failed_share {failed_share} ratio ({} of {} ops)",
            entry.failed, entry.attempted
        );
    }
}

fn run_set(args: &Args) -> Result<ExitCode, String> {
    let set = end_to_end_set(args)?;
    print_end_to_end(&set);
    let mut failed: u64 = set.values().map(|e| e.failed).sum();

    let mut documents = Vec::new();
    for workload in selected_workloads(args) {
        eprintln!("layerbench: traced run: {}", workload.name);
        let traced = child_run(workload.name, args.seed, TRACED_SECONDS, true)?;
        failed += traced.failed;
        for metric in &spec::PER_LAYER {
            println!(
                "{} {} {} {}",
                workload.name,
                metric.name,
                traced.metrics.get(metric.name).copied().unwrap_or(0.0),
                metric.unit
            );
        }
        let entry = &set[workload.name];
        let end_to_end = spec::END_TO_END.iter().map(|m| {
            let rounds = entry.rounds.get(m.name).cloned().unwrap_or_default();
            let fields = [
                ("value", Value::Num(entry.value(m))),
                ("unit", json::text(m.unit)),
                ("rounds", Value::Arr(rounds.into_iter().map(Value::Num).collect())),
            ];
            (m.name, json::object(fields))
        });
        let per_layer = spec::PER_LAYER.iter().map(|m| {
            let value = traced.metrics.get(m.name).copied().unwrap_or(0.0);
            (m.name, json::object([("value", Value::Num(value)), ("unit", json::text(m.unit))]))
        });
        documents.push((
            workload.name,
            json::object([
                ("attempted", Value::Num(entry.attempted as f64)),
                ("failed", Value::Num(entry.failed as f64)),
                ("end_to_end", json::object(end_to_end)),
                ("per_layer", json::object(per_layer)),
            ]),
        ));
    }

    let nproc = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1);
    let results = json::object([
        ("seed", Value::Num(args.seed as f64)),
        ("nproc", Value::Num(nproc as f64)),
        ("threads", Value::Num(workloads::default_threads() as f64)),
        ("simd", json::text(format!("{:?}", mp_model::simd::level()))),
        ("git_head", json::text(git_head())),
        ("workloads", json::object(documents)),
    ]);
    let path = child::out_dir().join("results.json");
    std::fs::create_dir_all(child::out_dir())
        .map_err(|e| format!("{}: {e}", child::out_dir().display()))?;
    std::fs::write(&path, json::pretty(&results))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("layerbench: wrote {}", path.display());
    if failed > 0 {
        eprintln!("layerbench: {failed} op(s) failed verification");
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}

/// `git rev-parse HEAD` of the repository, when it is one.
fn git_head() -> String {
    Command::new("git")
        .args(["-C", env!("CARGO_MANIFEST_DIR"), "rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|output| output.status.success())
        .map(|output| String::from_utf8_lossy(&output.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Two untraced sets of the same code, back to back: every workload ×
/// end-to-end metric must agree within the metric's bound.
fn check_repeat(args: &Args) -> Result<ExitCode, String> {
    let first = end_to_end_set(args)?;
    let second = end_to_end_set(args)?;
    let mut beyond = 0;
    println!(
        "{:<15} {:<17} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "first", "second", "change", "bound"
    );
    for (workload, entry) in &first {
        for metric in &spec::END_TO_END {
            let (a, b) = (entry.value(metric), second[workload].value(metric));
            let change = (b - a) / a;
            let bound = metric.bound.expect("end-to-end metrics carry a bound");
            let verdict = if change.abs() > bound {
                beyond += 1;
                "  BEYOND BOUND"
            } else {
                ""
            };
            println!(
                "{workload:<15} {:<17} {a:>14.4} {b:>14.4} {:>+8.2}% {:>6.0}%  {} is better{verdict}",
                metric.name,
                change * 100.0,
                bound * 100.0,
                metric.better.as_str(),
            );
        }
    }
    let failed: u64 = first.values().chain(second.values()).map(|e| e.failed).sum();
    if failed > 0 || beyond > 0 {
        eprintln!(
            "layerbench: {beyond} metric(s) beyond their bound, {failed} op(s) failed verification"
        );
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let result = RunResult {
            attempted: 12,
            failed: 0,
            metrics: vec![("op_p50_ms", 1.2034, "ms"), ("setup_s", 0.8127, "s")],
        };
        assert_eq!(
            json::compact(&result.to_json()),
            "{\"correct\":true,\"attempted\":12,\"failed\":0,\"metrics\":{\"op_p50_ms\":{\"value\":1.2034,\"unit\":\"ms\"},\"setup_s\":{\"value\":0.8127,\"unit\":\"s\"}}}"
        );
        let failed = RunResult { attempted: 3, failed: 1, metrics: Vec::new() };
        assert!(json::compact(&failed.to_json())
            .starts_with("{\"correct\":false,\"attempted\":3,\"failed\":1,"));
    }
}
