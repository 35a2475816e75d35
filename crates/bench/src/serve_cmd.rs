//! The `repro serve` subcommand: run the resident sweep service.
//!
//! Binds an `mp-serve` [`Server`] on a TCP address or Unix socket and serves
//! the `mp-serve` query protocol — line-delimited JSON (`sweep`, `top_k`,
//! `pareto`, `curve`, `stats`, `catalogue`, `ping`, `shutdown`), with a
//! sweep's streamed chunks as binary frames — until a client sends
//! `shutdown`. The service owns one long-lived engine (`--shards` ×
//! `--threads` sweep threads) and its memoisation cache, so
//! repeated queries on a backend that memoises (`sim`, `comm`) are answered
//! warm — analytic and measured recompute, which is cheaper than a probe; the
//! readiness line's `cache=` says which. The `measured`
//! backend additionally exposes its synthetic calibration catalogue so
//! clients can address applications by fingerprint id.

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;

use mp_dse::fault::{FaultPlan, FaultyBackend};
use mp_model::catalogue::CatalogueRegistry;
use mp_serve::prelude::*;

use crate::cli;

/// The `serve` flags that consume a value token (see
/// [`crate::dse_cmd::VALUE_FLAGS`] for why this lives next to `parse`).
pub const VALUE_FLAGS: &[&str] = &[
    "--addr",
    "--socket",
    "--shards",
    "--threads",
    "--backend",
    "--loops",
    "--executors",
    "--cost-budget",
    "--jobs-dir",
    "--fail-nth",
    "--fault-latency-ms",
];

/// The subcommand's usage, printed after a parse error and in `repro`'s
/// own usage.
pub const USAGE: &str =
    "repro serve [--addr HOST:PORT | --socket PATH] [--shards N] [--threads N] \
     [--backend analytic|comm|sim|measured] [--loops 1] [--executors N] [--cost-budget MS] \
     [--jobs-dir DIR] [--fail-nth N] [--fault-latency-ms MS]";

/// Options of one `serve` invocation.
pub struct Options {
    endpoint: Endpoint,
    shards: usize,
    /// Engine threads per `--shards` unit (the engine runs their product);
    /// `None` = the host's cores divided by `shards`.
    threads: Option<usize>,
    backend: String,
    /// Reactor executor threads (`0` = auto).
    executors: usize,
    /// Planner admission budget: estimated pending milliseconds per service.
    cost_budget_ms: f64,
    /// Durable-job store: checkpoint manifests and cache segment spills
    /// live here and are restored on restart. `None` = jobs run
    /// in-memory only.
    jobs_dir: Option<PathBuf>,
    /// Fault drill: panic the Nth evaluated batch (0-based) once.
    fail_nth: Option<u64>,
    /// Fault drill: per-batch injected latency, milliseconds (widens the
    /// window the CI crash drill must land its `kill -9` in).
    fault_latency_ms: u64,
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut options = Options {
        endpoint: Endpoint::Tcp("127.0.0.1:7077".to_string()),
        shards: 4,
        threads: None,
        backend: "analytic".to_string(),
        executors: 0,
        cost_budget_ms: ServiceConfig::default().cost_budget_ms,
        jobs_dir: None,
        fail_nth: None,
        fault_latency_ms: 0,
    };
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let arg = arg.as_str();
        if VALUE_FLAGS.contains(&arg) {
            let value = iter.next().ok_or_else(|| format!("{arg} needs a value"))?.clone();
            match arg {
                "--addr" => options.endpoint = Endpoint::Tcp(value),
                "--socket" => options.endpoint = Endpoint::Unix(value.into()),
                "--shards" => options.shards = cli::parse_parallelism(arg, &value)?,
                "--threads" => options.threads = Some(cli::parse_parallelism(arg, &value)?),
                "--backend" => options.backend = value,
                // The server has one event loop; the flag stays so that
                // scripts passing `--loops 1` keep working.
                "--loops" if value != "1" => {
                    return Err(format!(
                        "{arg} must be 1: the server runs one event loop, on the thread that \
                         serves, got `{value}`"
                    ));
                }
                "--loops" => {}
                "--executors" => options.executors = cli::parse_parallelism(arg, &value)?,
                "--cost-budget" => {
                    options.cost_budget_ms = value
                        .parse::<f64>()
                        .ok()
                        .filter(|ms| *ms > 0.0 && ms.is_finite())
                        .ok_or_else(|| {
                            format!("{arg} needs a positive budget in milliseconds, got `{value}`")
                        })?;
                }
                "--jobs-dir" => options.jobs_dir = Some(PathBuf::from(value)),
                "--fail-nth" => {
                    options.fail_nth = Some(
                        value
                            .parse::<u64>()
                            .map_err(|_| format!("{arg} needs a batch ordinal, got `{value}`"))?,
                    );
                }
                "--fault-latency-ms" => {
                    options.fault_latency_ms = value
                        .parse::<u64>()
                        .map_err(|_| format!("{arg} needs milliseconds, got `{value}`"))?;
                }
                other => unreachable!("{other} is listed in VALUE_FLAGS but unhandled"),
            }
        } else {
            return Err(format!("unknown serve option `{arg}`"));
        }
    }
    Ok(options)
}

/// Build the service a parsed option set describes (shared with `--spawn`-
/// free in-process uses).
pub fn build_service(options: &Options) -> Result<SweepService, String> {
    let mut backend = cli::backend_by_name(&options.backend)?;
    if options.fail_nth.is_some() || options.fault_latency_ms > 0 {
        // Fault drill: wrap the backend in the deterministic injector. The
        // armed faults are bit-transparent outside their schedule, so a
        // drilled server's records stay identical to a plain one's.
        let plan = FaultPlan::new();
        if let Some(n) = options.fail_nth {
            plan.fail_batch(n);
        }
        if options.fault_latency_ms > 0 {
            plan.set_latency(std::time::Duration::from_millis(options.fault_latency_ms));
        }
        backend = Arc::new(FaultyBackend::new(backend, plan));
    }
    let catalogue = if options.backend == "measured" {
        // The same deterministic calibrations the backend was built from,
        // exposed as the id-addressable catalogue.
        CatalogueRegistry::from_calibrations(crate::dse_cmd::synthetic_calibrations())
    } else {
        CatalogueRegistry::new()
    };
    let host_threads = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1);
    let threads_per_shard =
        options.threads.unwrap_or_else(|| (host_threads / options.shards).max(1));
    let config = ServiceConfig {
        shards: options.shards,
        threads_per_shard,
        cost_budget_ms: options.cost_budget_ms,
        cost_per_scenario_ms: None,
    };
    Ok(SweepService::new(backend, &config).with_catalogue(catalogue))
}

/// Entry point of the `serve` subcommand.
pub fn run(args: &[String]) -> ExitCode {
    let options = match parse(args) {
        Ok(options) => options,
        Err(message) => {
            eprintln!("{message}");
            eprintln!("usage: {USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let service = match build_service(&options) {
        Ok(service) => {
            crate::alloc_track::register_metrics(service.registry());
            Arc::new(service)
        }
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };
    // Durable jobs: the manager restores manifests and cache spills from
    // --jobs-dir (if any), runs submitted jobs in the background and must
    // outlive the serve loop — dropping it stops the runner.
    let _jobs =
        match JobManager::new(Arc::clone(&service), options.jobs_dir.clone(), JobConfig::default())
        {
            Ok(jobs) => jobs,
            Err(e) => {
                eprintln!("failed to initialise job store: {e}");
                return ExitCode::FAILURE;
            }
        };
    let server = match Server::bind_with(
        &options.endpoint,
        Arc::clone(&service),
        ServerConfig { executors: options.executors },
    ) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("failed to bind {}: {e}", options.endpoint);
            return ExitCode::FAILURE;
        }
    };
    // The `listening on` line is the readiness signal `repro load --spawn`
    // (and the CI smoke step) waits for — keep its shape stable.
    let stats = service.stats();
    println!(
        "mp-serve listening on {} (backend={}, engine threads={}, cache={})",
        server.endpoint(),
        stats.backend,
        stats.threads,
        if service.memoises() { "on" } else { "off" },
    );
    match server.run() {
        Ok(()) => {
            println!("mp-serve: shutdown requested, exiting");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("serve loop failed: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_covers_flags_and_rejects_bad_counts() {
        let options = parse(&[
            "--socket".to_string(),
            "/tmp/mp.sock".to_string(),
            "--shards".to_string(),
            "2".to_string(),
            "--threads".to_string(),
            "3".to_string(),
            "--backend".to_string(),
            "measured".to_string(),
        ])
        .unwrap();
        assert_eq!(options.endpoint, Endpoint::Unix("/tmp/mp.sock".into()));
        assert_eq!(options.shards, 2);
        assert_eq!(options.threads, Some(3));
        assert_eq!(options.backend, "measured");

        assert!(parse(&["--shards".to_string(), "0".to_string()]).is_err());
        assert!(parse(&["--threads".to_string(), "0".to_string()]).is_err());
        assert!(parse(&["--executors".to_string(), "0".to_string()]).is_err());
        let sized = parse(&[
            "--loops".to_string(),
            "1".to_string(),
            "--executors".to_string(),
            "6".to_string(),
        ])
        .unwrap();
        assert_eq!(sized.executors, 6);
        for loops in ["0", "2"] {
            let message = parse(&["--loops".to_string(), loops.to_string()]).err().expect(loops);
            assert!(message.contains("one event loop"), "{message}");
        }

        let planned = parse(&["--cost-budget".to_string(), "1500".to_string()]).unwrap();
        assert_eq!(planned.cost_budget_ms, 1500.0);
        assert!(parse(&["--cost-budget".to_string(), "0".to_string()]).is_err());
        assert!(parse(&["--cost-budget".to_string(), "soon".to_string()]).is_err());
        assert!(parse(&["--bogus".to_string()]).is_err());
        // Removed switches are unknown options like any other.
        for removed in ["--no-steal", "--no-coalesce", "--no-cache", "--batch", "--queue"] {
            let message = parse(&[removed.to_string()]).err().expect(removed);
            assert!(message.contains("unknown serve option"), "{message}");
        }

        let durable = parse(&[
            "--jobs-dir".to_string(),
            "/tmp/mp-jobs".to_string(),
            "--fail-nth".to_string(),
            "7".to_string(),
            "--fault-latency-ms".to_string(),
            "3".to_string(),
        ])
        .unwrap();
        assert_eq!(durable.jobs_dir, Some(PathBuf::from("/tmp/mp-jobs")));
        assert_eq!(durable.fail_nth, Some(7));
        assert_eq!(durable.fault_latency_ms, 3);
        assert!(parse(&["--fail-nth".to_string(), "seven".to_string()]).is_err());
        assert!(parse(&["--fault-latency-ms".to_string(), "-1".to_string()]).is_err());
        assert!(
            build_service(&parse(&["--backend".to_string(), "nope".to_string()]).unwrap()).is_err()
        );
    }

    #[test]
    fn measured_service_exposes_its_catalogue() {
        let options = parse(&["--backend".to_string(), "measured".to_string()]).unwrap();
        let service = build_service(&options).unwrap();
        let entries = service.catalogue_entries();
        assert!(!entries.is_empty());
        assert!(entries.iter().all(|e| e.id.len() == 16));
    }

    #[test]
    fn clients_can_address_calibrations_by_catalogue_id() {
        use mp_dse::prelude::*;
        let options = parse(&[
            "--backend".to_string(),
            "measured".to_string(),
            "--shards".to_string(),
            "2".to_string(),
            "--threads".to_string(),
            "1".to_string(),
        ])
        .unwrap();
        let service = build_service(&options).unwrap();
        // Take two catalogue ids and sweep a space whose application axis is
        // assembled server-side from them.
        let ids: Vec<String> =
            service.catalogue_entries().iter().take(2).map(|e| e.id.clone()).collect();
        let axes = ScenarioSpace::new()
            .clear_designs()
            .add_symmetric_grid((0..24).map(|i| 1.0 + i as f64 * 5.0));
        let spec = SpaceSpec::Catalogue { ids: ids.clone(), space: axes.clone() };
        let resolved = service.resolve_space(&spec).unwrap();
        assert_eq!(resolved.apps().len(), 2);
        let result = service.sweep(&resolved, None).unwrap();
        assert_eq!(result.stats.scenarios, resolved.len());
        assert!(result.stats.valid > 0, "calibrated apps must evaluate");
        // Bit-identical to the direct engine sweep with the same backend.
        let backend = MeasuredBackend::new(crate::dse_cmd::synthetic_calibrations());
        let direct = Engine::new(1).sweep(&resolved, &backend, &SweepConfig::default());
        for (a, b) in result.records.iter().zip(direct.records.iter()) {
            assert_eq!(a.speedup.to_bits(), b.speedup.to_bits());
        }
    }
}
