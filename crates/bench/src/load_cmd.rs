//! The `repro load` subcommand: a closed-loop differential checker for
//! `repro serve`.
//!
//! Drives N concurrent connections (default 16) against a running sweep
//! service for two passes — `cold`, then `warm` — of mixed queries (full
//! sweeps, index-range sweeps, top-k, Pareto). Every response is checked
//! **bit-identical** against a direct local `Engine::sweep` of the same space
//! with the same backend; the command exits non-zero on any parity failure,
//! on a query still rejected as `busy` after the retry budget, or when the
//! cache did not behave as the backend says it should: a backend that
//! memoises (`sim`, `comm`) must answer the warm pass with a hit rate above
//! 90%, one that does not (analytic, measured) must leave the server's cache
//! untouched — no hits, inserts or entries. The report is that verdict and
//! the per-pass cache counts behind it; throughput and latency are
//! layerbench's to measure (`benchmark/run.sh`, workloads `serve_*`).
//!
//! `--pipelined` switches each connection to the v2 protocol's pipelined
//! mode: up to 8 requests are written back-to-back before any response is
//! read, exercising the server's ordered in-flight queue. Connections are
//! multiplexed over a bounded worker-thread pool, so `--clients 2048` costs
//! the generator 64 threads, not 2048 — the *server* is the side that has to
//! scale. `busy` admission rejections are retried (and counted) rather than
//! failed.
//!
//! `--spawn` makes the command self-contained: it launches `repro serve` as
//! a child process on a free port, waits for its readiness line, runs the
//! load, then shuts the child down — this is what the CI smoke step runs.
//!
//! `--overlap` switches the workload to the planner's worst-friendly case:
//! every client issues the *same* full sweep concurrently, so in-flight
//! windows coalesce. The run then fails unless the server's
//! `planner_coalesced_requests` counter moved.

use std::io::BufRead;
use std::ops::Range;
use std::process::ExitCode;
use std::time::Instant;

use mp_dse::backend::EvalBackend;
use mp_dse::prelude::*;
use mp_model::params::AppClass;
use mp_serve::prelude::*;

use crate::cli;

/// The `load` flags that consume a value token (see
/// [`crate::dse_cmd::VALUE_FLAGS`] for why this lives next to `parse`).
pub const VALUE_FLAGS: &[&str] = &["--addr", "--socket", "--clients", "--backend"];

/// The subcommand's usage, printed after a parse error and in `repro`'s
/// own usage.
pub const USAGE: &str = "repro load [--addr HOST:PORT | --socket PATH] [--clients N] \
     [--backend analytic|comm|sim|measured] [--pipelined] [--overlap] [--quick] [--json] \
     [--spawn] [--shutdown]";

/// Queries per connection per pass: two of each kind in the mixed shape
/// ([`Query::for_slot`] cycles full sweep, window, analysis).
const REQUESTS: usize = 6;

/// Requests a pipelined connection writes before reading. Must stay safely
/// below the server's per-connection pipeline cap (128): a client that
/// writes more requests than the server is willing to buffer — while itself
/// not reading responses — deadlocks on its own socket, by design.
const DEPTH: usize = 8;

#[derive(Debug)]
struct Options {
    endpoint: Endpoint,
    endpoint_explicit: bool,
    clients: usize,
    quick: bool,
    json: bool,
    spawn: bool,
    backend: String,
    shutdown: bool,
    pipelined: bool,
    overlap: bool,
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut options = Options {
        endpoint: Endpoint::Tcp("127.0.0.1:7077".to_string()),
        endpoint_explicit: false,
        clients: 16,
        quick: false,
        json: false,
        spawn: false,
        backend: "analytic".to_string(),
        shutdown: false,
        pipelined: false,
        overlap: false,
    };
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let arg = arg.as_str();
        if VALUE_FLAGS.contains(&arg) {
            let value = iter.next().ok_or_else(|| format!("{arg} needs a value"))?.clone();
            match arg {
                "--addr" => {
                    options.endpoint = Endpoint::Tcp(value);
                    options.endpoint_explicit = true;
                }
                "--socket" => {
                    options.endpoint = Endpoint::Unix(value.into());
                    options.endpoint_explicit = true;
                }
                "--clients" => options.clients = cli::parse_parallelism(arg, &value)?,
                "--backend" => options.backend = value,
                other => unreachable!("{other} is listed in VALUE_FLAGS but unhandled"),
            }
        } else {
            match arg {
                "--quick" => options.quick = true,
                "--json" => options.json = true,
                "--spawn" => options.spawn = true,
                "--shutdown" => options.shutdown = true,
                "--pipelined" => options.pipelined = true,
                "--overlap" => options.overlap = true,
                other => return Err(format!("unknown load option `{other}`")),
            }
        }
    }
    if options.spawn && options.endpoint_explicit {
        return Err(
            "--spawn starts its own server on a free local port and cannot be combined with \
             --addr or --socket (drop --spawn to load an existing server)"
                .to_string(),
        );
    }
    Ok(options)
}

/// The query space the generator drives: Table III's classes over symmetric
/// and asymmetric grids under two growth laws. Matches what an interactive
/// DSE client would ask, and is small enough that the local reference sweep
/// stays cheap. The `measured` backend answers for its calibrated
/// applications instead.
pub fn load_space(quick: bool, backend: &dyn EvalBackend) -> ScenarioSpace {
    let sym_points = if quick { 96usize } else { 384 };
    let max_r: f64 = 128.0;
    let sym = mp_dse::scenario::log_spaced(sym_points, max_r);
    let pow2 = |limit: f64| {
        std::iter::successors(Some(1.0f64), move |r| (r * 2.0 <= limit).then_some(r * 2.0))
    };
    let apps = if backend.name() == "measured" {
        // Straight from the calibrations (no second backend build).
        crate::dse_cmd::synthetic_calibrations().iter().map(|c| c.app_params().clone()).collect()
    } else {
        AppClass::table3_all().into_iter().map(|c| c.params()).collect()
    };
    ScenarioSpace::new()
        .with_apps(apps)
        .clear_designs()
        .add_symmetric_grid(sym)
        .add_asymmetric_grid([1.0, 4.0], pow2(128.0).skip(1))
        .with_growths(vec![
            mp_model::growth::GrowthFunction::Linear,
            mp_model::growth::GrowthFunction::Logarithmic,
        ])
}

/// Look one series up in a metrics-snapshot JSON value
/// (`{"counters":{..},"gauges":{..},"histograms":{..}}`).
fn metrics_series<'a>(
    value: &'a serde_json::Value,
    section: &str,
    name: &str,
) -> Option<&'a serde_json::Value> {
    let section = value.as_map()?.iter().find(|(key, _)| key == section)?;
    section.1.as_map()?.iter().find(|(key, _)| key == name).map(|(_, entry)| entry)
}

/// Verify the server's `metrics` snapshot carries the core series — and
/// that they are nonzero where this load's shape guarantees activity
/// (`cache_hits` only when the backend memoises). Returns the problems found
/// (empty = pass); the CI smoke steps fail on any. The check runs against
/// the *server's* registry (over the wire), so with `--spawn` it exercises
/// the whole export path end to end.
fn check_metrics(metrics_json: &str, options: &Options, memoises: bool) -> Vec<String> {
    let mut problems = Vec::new();
    let value = match serde_json::parse(metrics_json) {
        Ok(value) => value,
        Err(e) => return vec![format!("metrics response is not valid JSON: {e}")],
    };

    let mut nonzero_counters = vec![
        "requests_total_ping",
        "requests_total_stats",
        "requests_total_sweep",
        "requests_total_prepare",
    ];
    if memoises {
        nonzero_counters.push("cache_hits");
    }
    if options.clients >= 2 && !options.overlap {
        // The deterministic query mix covers top-k (even connections) and
        // Pareto (odd connections) from the third request on — except in
        // overlap mode (all duplicate full sweeps), which never sends the
        // analysis verbs.
        nonzero_counters.push("requests_total_top_k");
        nonzero_counters.push("requests_total_pareto");
    }
    for name in nonzero_counters {
        match metrics_series(&value, "counters", name).and_then(|v| v.as_f64()) {
            Some(count) if count > 0.0 => {}
            Some(_) => problems.push(format!("counter `{name}` is zero under guaranteed load")),
            None => problems.push(format!("counter `{name}` is missing")),
        }
    }
    // The planner's series are registered unconditionally; coalescing and
    // rejection counts depend on the workload shape, so presence (not
    // activity) is what every load shape can assert.
    for name in [
        "busy_rejections",
        "planner_coalesced_requests",
        "planner_shared_scenarios",
        "planner_cost_rejections",
    ] {
        if metrics_series(&value, "counters", name).and_then(|v| v.as_f64()).is_none() {
            problems.push(format!("counter `{name}` is missing"));
        }
    }
    for name in ["executor_queue_depth", "alloc_live_bytes", "alloc_peak_bytes"] {
        if metrics_series(&value, "gauges", name).and_then(|v| v.as_f64()).is_none() {
            problems.push(format!("gauge `{name}` is missing"));
        }
    }
    for name in ["serve_request_ms_sweep", "serve_pipeline_depth", "dse_batch_ms"] {
        let count = metrics_series(&value, "histograms", name)
            .and_then(|h| h.as_map()?.iter().find(|(key, _)| key == "count").map(|(_, v)| v))
            .and_then(|v| v.as_f64());
        match count {
            Some(count) if count > 0.0 => {}
            Some(_) => problems.push(format!("histogram `{name}` is empty under guaranteed load")),
            None => problems.push(format!("histogram `{name}` is missing")),
        }
    }
    problems
}

/// The server's `planner_coalesced_requests` counter, read over the wire
/// (an absent series reads as zero, so deltas stay well-defined).
fn coalesced_requests(control: &mut Client) -> Result<u64, String> {
    let (json, _) = control.metrics().map_err(|e| format!("metrics failed: {e}"))?;
    let value = serde_json::parse(&json).map_err(|e| format!("metrics response: {e}"))?;
    let count = metrics_series(&value, "counters", "planner_coalesced_requests")
        .and_then(|v| v.as_f64())
        .unwrap_or(0.0);
    Ok(count as u64)
}

/// The local ground truth every response is compared against.
struct Reference {
    space: ScenarioSpace,
    records: Vec<EvalRecord>,
    top: Vec<EvalRecord>,
    frontier_cores: Vec<EvalRecord>,
    frontier_area: Vec<EvalRecord>,
}

/// One query of the deterministic per-(connection, request) mix.
#[derive(Debug, Clone)]
enum Query {
    Full,
    Window(Range<usize>),
    Top,
    Frontier(CostAxis),
}

impl Query {
    /// The query for one (connection, request) slot, deterministic so
    /// reruns are reproducible. Overlap mode sends the identical full sweep
    /// from every slot — maximum in-flight duplication, the shape the
    /// planner's coalescing table exists for; otherwise the slots cycle
    /// through the v1 generator's mixed shape.
    fn for_slot(connection: usize, request: usize, n: usize, overlap: bool) -> Query {
        if overlap {
            return Query::Full;
        }
        match request % 3 {
            0 => Query::Full,
            1 => {
                let start = (connection * 7919 + request * 104_729) % n;
                let end = (start + n / 4 + 1).min(n);
                Query::Window(start..end)
            }
            _ => {
                if connection % 2 == 0 {
                    Query::Top
                } else if request % 2 == 0 {
                    Query::Frontier(CostAxis::Cores)
                } else {
                    Query::Frontier(CostAxis::Area)
                }
            }
        }
    }

    /// The wire request; sweeps stream in the server's default chunk size.
    fn request(&self, reference: &Reference, spec: &SpaceSpec) -> Request {
        let space = spec.clone();
        match self {
            Query::Full => Request::Sweep { space, start: 0, end: reference.space.len(), chunk: 0 },
            Query::Window(window) => {
                Request::Sweep { space, start: window.start, end: window.end, chunk: 0 }
            }
            Query::Top => Request::TopK { space, k: 10 },
            Query::Frontier(cost) => Request::Pareto { space, cost: *cost },
        }
    }

    /// Check one query's collected responses against the local ground
    /// truth. `Ok(parity_held)`, or `Err(())` when the server reported
    /// `busy` (not a parity verdict — retry).
    fn verify(&self, responses: Vec<Response>, reference: &Reference) -> Result<bool, ()> {
        if responses.iter().any(|r| matches!(r, Response::Busy { .. })) {
            return Err(());
        }
        match self {
            Query::Full => Ok(assemble_sweep(responses, &(0..reference.space.len()))
                .map(|(records, stats)| {
                    stats.scenarios == reference.space.len()
                        && cli::records_identical(&records, &reference.records)
                })
                .unwrap_or(false)),
            Query::Window(window) => Ok(assemble_sweep(responses, window)
                .map(|(records, _)| {
                    cli::records_identical(&records, &reference.records[window.clone()])
                })
                .unwrap_or(false)),
            Query::Top | Query::Frontier(_) => {
                let truth = match self {
                    Query::Top => &reference.top,
                    Query::Frontier(CostAxis::Cores) => &reference.frontier_cores,
                    _ => &reference.frontier_area,
                };
                match responses.as_slice() {
                    [Response::Records { records }] => {
                        Ok(cli::records_identical(&from_wire(records), truth))
                    }
                    _ => Ok(false),
                }
            }
        }
    }
}

/// The [`RetryPolicy`] jitter salt of one (connection, request) slot:
/// distinct per slot, so concurrent retriers back off on different
/// schedules instead of re-asking a busy server in lockstep. The odd
/// multiplier is a bijection that spreads neighbouring slots over all 64
/// bits (the policy's seed ORs in bit 0, so salts differing only there
/// would jitter alike).
fn retry_salt(connection: usize, request: usize) -> u64 {
    (((connection as u64) << 32) ^ request as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// What one pass's queries amounted to, summed over its connections.
#[derive(Default)]
struct Tally {
    /// Answers that did **not** match the local ground truth.
    failures: usize,
    /// `busy` rejections absorbed by retrying.
    busy_retries: u64,
    /// Queries the server was still rejecting with `busy` after the whole
    /// retry budget: never answered, so server saturation rather than a
    /// parity verdict. Counted (and failed) apart from `failures` so the
    /// differential-test report stays truthful.
    busy_exhausted: usize,
}

impl Tally {
    fn add(&mut self, other: &Tally) {
        self.failures += other.failures;
        self.busy_retries += other.busy_retries;
        self.busy_exhausted += other.busy_exhausted;
    }

    /// Run one query with bounded busy-retry via the shared client
    /// [`RetryPolicy`] (jittered exponential backoff, floored at the
    /// server's `estimated_cost_ms` hint) and count its outcome.
    fn run_query(
        &mut self,
        client: &mut Client,
        query: &Query,
        reference: &Reference,
        spec: &SpaceSpec,
        salt: u64,
    ) -> Result<(), String> {
        // The policy's default budget: 200 retries before a persistent
        // `busy` counts as unanswered.
        let policy = RetryPolicy::backoff_ms(1, 250);
        let request = query.request(reference, spec);
        let outcome =
            client.call_with_retry(&request, &policy, salt).map_err(|e| format!("call: {e}"))?;
        self.busy_retries += outcome.busy_retries;
        // call_with_retry only hands back a busy answer once the budget is
        // exhausted.
        match query.verify(outcome.responses, reference) {
            Ok(true) => {}
            Ok(false) => self.failures += 1,
            Err(()) => self.busy_exhausted += 1,
        }
        Ok(())
    }
}

/// Run one pass of `clients × REQUESTS` mixed queries. Connections are
/// multiplexed over at most 64 generator threads. Each wave sends every
/// connection its next request — or, pipelined, its next [`DEPTH`] requests
/// back-to-back, retrying a `busy` answer solo.
fn run_pass(
    endpoint: &Endpoint,
    reference: &Reference,
    options: &Options,
) -> Result<Tally, String> {
    let clients = options.clients;
    let threads = clients.min(64);
    let depth = if options.pipelined { DEPTH } else { 1 };
    let n = reference.space.len();
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(threads);
        for thread_index in 0..threads {
            handles.push(scope.spawn(move || -> Result<Tally, String> {
                let mut conns = Vec::new();
                // This thread's share of the connection ids.
                for connection in (thread_index..clients).step_by(threads) {
                    let mut client = Client::connect(endpoint)
                        .map_err(|e| format!("connection {connection}: connect failed: {e}"))?;
                    // Register the space once per connection and address it
                    // by id afterwards, the way a resident DSE client would.
                    let (id, scenarios) = client
                        .prepare(&reference.space)
                        .map_err(|e| format!("connection {connection}: prepare: {e}"))?;
                    if scenarios != n {
                        return Err(format!(
                            "connection {connection}: prepared space has {scenarios} of {n} scenarios"
                        ));
                    }
                    conns.push((connection, client, SpaceSpec::Prepared { id }));
                }
                let mut tally = Tally::default();
                for wave in (0..REQUESTS).step_by(depth) {
                    for (connection, client, spec) in conns.iter_mut() {
                        let connection = *connection;
                        let slots = wave..(wave + depth).min(REQUESTS);
                        let queries: Vec<Query> = slots
                            .clone()
                            .map(|request| Query::for_slot(connection, request, n, options.overlap))
                            .collect();
                        // `None`: not sent yet, so `run_query` sends it.
                        let answers: Vec<Option<Vec<Response>>> = if options.pipelined {
                            let wire = queries.iter().map(|q| q.request(reference, spec)).collect();
                            let answers = client.call_pipelined(wire).map_err(|e| {
                                format!("connection {connection}: pipelined wave: {e}")
                            })?;
                            answers.into_iter().map(Some).collect()
                        } else {
                            vec![None; queries.len()]
                        };
                        for ((request, query), answer) in slots.zip(&queries).zip(answers) {
                            match answer.map(|answer| query.verify(answer, reference)) {
                                Some(Ok(true)) => {}
                                Some(Ok(false)) => tally.failures += 1,
                                unsent_or_busy => {
                                    tally.busy_retries += u64::from(unsent_or_busy.is_some());
                                    let salt = retry_salt(connection, request);
                                    tally
                                        .run_query(client, query, reference, spec, salt)
                                        .map_err(|e| format!("connection {connection}: {e}"))?;
                                }
                            }
                        }
                    }
                }
                Ok(tally)
            }));
        }
        let mut total = Tally::default();
        for handle in handles {
            total.add(&handle.join().map_err(|_| "a load thread panicked".to_string())??);
        }
        Ok(total)
    })
}

/// Spawn `repro serve` (default sizing) as a child on a free port and wait
/// for its readiness line. Returns the child and the endpoint it listens on.
fn spawn_server(options: &Options) -> Result<(std::process::Child, Endpoint), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate repro binary: {e}"))?;
    let mut child = std::process::Command::new(exe)
        .args(["serve", "--addr", "127.0.0.1:0", "--backend", &options.backend])
        .stdout(std::process::Stdio::piped())
        .spawn()
        .map_err(|e| format!("failed to spawn repro serve: {e}"))?;
    let stdout = child.stdout.take().expect("stdout piped");
    let mut reader = std::io::BufReader::new(stdout);
    let mut line = String::new();
    loop {
        line.clear();
        let read = reader.read_line(&mut line).map_err(|e| {
            let _ = child.kill();
            format!("reading serve readiness line failed: {e}")
        })?;
        if read == 0 {
            let _ = child.kill();
            return Err("repro serve exited before becoming ready".to_string());
        }
        if let Some(rest) = line.split("listening on tcp://").nth(1) {
            let addr = rest.split_whitespace().next().unwrap_or("").to_string();
            if addr.is_empty() {
                let _ = child.kill();
                return Err(format!("malformed readiness line: {line}"));
            }
            // Keep draining the child's stdout so its final shutdown print
            // can never block on a full pipe.
            std::thread::spawn(move || {
                let mut sink = String::new();
                while matches!(reader.read_line(&mut sink), Ok(read) if read > 0) {
                    sink.clear();
                }
            });
            return Ok((child, Endpoint::Tcp(addr)));
        }
    }
}

/// Entry point of the `load` subcommand.
pub fn run(args: &[String]) -> ExitCode {
    let options = match parse(args) {
        Ok(options) => options,
        Err(message) => {
            eprintln!("{message}");
            eprintln!("usage: {USAGE}");
            return ExitCode::FAILURE;
        }
    };

    // The local reference backend — by construction identical to what
    // `repro serve` runs for the same name (one shared constructor).
    let backend = match cli::backend_by_name(&options.backend) {
        Ok(backend) => backend,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };

    let mut child = None;
    let endpoint = if options.spawn {
        match spawn_server(&options) {
            Ok((spawned, endpoint)) => {
                child = Some(spawned);
                endpoint
            }
            Err(message) => {
                eprintln!("{message}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        options.endpoint.clone()
    };

    let outcome = drive(&options, backend.as_ref(), &endpoint);

    // Always reap a spawned server, even after a failed run.
    if let Some(mut child) = child {
        let shutdown_sent = outcome.is_ok() || {
            // Best-effort shutdown after a failure too.
            Client::connect(&endpoint).map(|mut c| c.shutdown().is_ok()).unwrap_or(false)
        };
        if !shutdown_sent {
            let _ = child.kill();
        }
        let _ = child.wait();
    }

    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!(
                "load run failed its acceptance checks (parity; >90% warm hit rate, or an \
                 untouched cache for a backend that does not memoise; live metrics; and \
                 under --overlap observed coalescing)"
            );
            ExitCode::FAILURE
        }
        Err(message) => {
            eprintln!("{message}");
            ExitCode::FAILURE
        }
    }
}

/// The load run proper; returns whether the acceptance checks held.
fn drive(
    options: &Options,
    backend: &(dyn EvalBackend + Send + Sync),
    endpoint: &Endpoint,
) -> Result<bool, String> {
    // Wait for the server (freshly spawned ones need a moment to bind).
    let deadline = Instant::now() + std::time::Duration::from_secs(10);
    let mut control = loop {
        match Client::connect(endpoint) {
            Ok(client) => break client,
            Err(_) if Instant::now() < deadline => {
                std::thread::sleep(std::time::Duration::from_millis(50));
            }
            Err(e) => return Err(format!("cannot reach {endpoint}: {e}")),
        }
    };
    let version = control.ping().map_err(|e| format!("ping failed: {e}"))?;

    // Local ground truth: one direct engine sweep of the same space.
    let space = load_space(options.quick, backend);
    let direct = Engine::with_all_cores().sweep(&space, backend, &SweepConfig::default());
    let reference = Reference {
        top: top_k(&direct.records, 10),
        frontier_cores: pareto_frontier(&direct.records, CostAxis::Cores),
        frontier_area: pareto_frontier(&direct.records, CostAxis::Area),
        records: direct.records,
        space,
    };

    // Two passes: a cold one that fills the cache of a backend that
    // memoises, and a warm one whose cache traffic the check below reads.
    let coalesced_before = coalesced_requests(&mut control)?;
    let mut tally = run_pass(endpoint, &reference, options)?;
    let before = control.stats().map_err(|e| format!("stats failed: {e}"))?.cache;
    tally.add(&run_pass(endpoint, &reference, options)?);
    let cache = control.stats().map_err(|e| format!("stats failed: {e}"))?.cache;
    let coalesced = coalesced_requests(&mut control)?.saturating_sub(coalesced_before);

    // The cache check follows the backend (the local reference is built by
    // the same constructor the server uses): one that memoises must answer
    // the warm pass from the cache; one that does not must never touch it.
    let memoises = backend.memoise();
    let (warm_hits, warm_misses) = (cache.hits - before.hits, cache.misses - before.misses);
    let warm_hit_rate = warm_hits as f64 / (warm_hits + warm_misses).max(1) as f64;
    let cache_ok = if memoises {
        warm_hit_rate > 0.9 && warm_hits > 0
    } else {
        cache.hits == 0 && cache.inserts == 0 && cache.entries == 0
    };

    // Observability smoke: the server's `metrics` snapshot (fetched over the
    // wire, so with `--spawn` this is the child process's registry) must
    // carry the core series, nonzero where this load guarantees activity.
    let (metrics_json, _prometheus) =
        control.metrics().map_err(|e| format!("metrics failed: {e}"))?;
    let metrics_problems = check_metrics(&metrics_json, options, memoises);
    let metrics_ok = metrics_problems.is_empty();

    // Overlap acceptance: the all-duplicate workload must actually
    // coalesce — a run where no request ever shared an in-flight evaluation
    // means the planner was not exercised.
    let coalesce_ok = !options.overlap || coalesced > 0;

    let Tally { failures, busy_retries, busy_exhausted } = tally;
    let ok = failures == 0 && busy_exhausted == 0 && cache_ok && metrics_ok && coalesce_ok;

    if options.shutdown || options.spawn {
        control.shutdown().map_err(|e| format!("shutdown failed: {e}"))?;
    }

    if options.json {
        println!(
            "{{\"experiment\":\"load\",\"endpoint\":\"{endpoint}\",\"protocol\":\"{version}\",\"backend\":\"{}\",\"clients\":{},\"pipelined\":{},\"overlap_mode\":{},\"scenarios_per_sweep\":{},\"parity_failures\":{failures},\"busy_retries\":{busy_retries},\"busy_exhausted\":{busy_exhausted},\"warm_hit_rate\":{warm_hit_rate},\"coalesced_requests\":{coalesced},\"metrics_ok\":{metrics_ok},\"metrics_problems\":[{}],\"ok\":{ok}}}",
            backend.name(),
            options.clients,
            options.pipelined,
            options.overlap,
            reference.space.len(),
            metrics_problems
                .iter()
                .map(|p| format!("\"{}\"", p.replace('"', "'")))
                .collect::<Vec<_>>()
                .join(","),
        );
        return Ok(ok);
    }
    println!(
        "closed-loop load against {endpoint} ({version}, backend `{}`{})",
        backend.name(),
        if options.pipelined { format!(", pipelined depth {DEPTH}") } else { String::new() },
    );
    println!(
        "  {} connections x {REQUESTS} requests x 2 passes over a {}-scenario space{}",
        options.clients,
        reference.space.len(),
        if busy_retries > 0 { format!(" | {busy_retries} busy retries") } else { String::new() },
    );
    if options.overlap {
        println!(
            "  overlap: {coalesced} coalesced requests across both passes{}",
            if coalesce_ok { "" } else { " — FAIL: duplicate sweeps never coalesced" },
        );
    }
    if metrics_ok {
        println!("  metrics: all core series present and active");
    }
    for problem in &metrics_problems {
        println!("  metrics: {problem}");
    }
    println!(
        "  parity: {}{} | {} ({}) ",
        if failures == 0 {
            "every response bit-identical to Engine::sweep".to_string()
        } else {
            format!("{failures} FAILURES")
        },
        if busy_exhausted == 0 {
            String::new()
        } else {
            // Saturation, not a correctness verdict: these queries were
            // never answered, so they are reported apart from parity.
            format!(" | {busy_exhausted} queries unanswered after busy-retry budget")
        },
        if memoises {
            format!(
                "warm hit rate {:.1}% ({warm_hits} hits / {warm_misses} misses)",
                warm_hit_rate * 100.0
            )
        } else {
            format!(
                "backend does not memoise: cache {} hits / {} inserts / {} entries",
                cache.hits, cache.inserts, cache.entries
            )
        },
        if ok { "PASS" } else { "FAIL" },
    );
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_defaults_sustain_sixteen_clients_and_reject_bad_counts() {
        let options = parse(&[]).unwrap();
        assert_eq!(options.clients, 16, "acceptance floor: >= 16 concurrent clients");
        assert!(!options.pipelined);
        assert!(parse(&["--clients".to_string(), "0".to_string()]).is_err());
        assert!(parse(&["--bogus".to_string()]).is_err());
        // Removed flags are unknown options like any other.
        for removed in [
            "--no-steal",
            "--no-coalesce",
            "--no-prepare",
            "--skew",
            "--fault-latency-ms",
            "--requests",
            "--chunk",
            "--depth",
            "--shards",
        ] {
            let message = parse(&[removed.to_string(), "--spawn".to_string()]).unwrap_err();
            assert!(message.contains("unknown load option"), "{message}");
        }
        assert!(cli::backend_by_name("nope").is_err());
        let conflict =
            parse(&["--spawn".to_string(), "--addr".to_string(), "1.2.3.4:1".to_string()])
                .unwrap_err();
        assert!(conflict.contains("cannot be combined"), "{conflict}");
        assert!(parse(&["--pipelined".to_string()]).unwrap().pipelined);

        // Overlap mode.
        assert!(!parse(&[]).unwrap().overlap);
        assert!(parse(&["--overlap".to_string()]).unwrap().overlap);
    }

    #[test]
    fn overlap_mode_sends_the_identical_full_sweep_from_every_slot() {
        let n = 500;
        for connection in 0..8 {
            for request in 0..REQUESTS {
                assert!(matches!(Query::for_slot(connection, request, n, true), Query::Full));
            }
        }
        // The mixed shape still rotates through windows and analyses.
        assert!(matches!(Query::for_slot(0, 1, n, false), Query::Window(_)));
        assert!(matches!(Query::for_slot(0, 2, n, false), Query::Top));
    }

    /// Every slot of the widest CI shape (256 connections) has its own salt,
    /// and the default shape's slots back off on distinct schedules from
    /// the first retry on.
    #[test]
    fn retry_salts_differ_per_slot_and_desynchronise_the_first_retry() {
        let slots = |clients: usize| {
            (0..clients).flat_map(|connection| (0..REQUESTS).map(move |r| (connection, r)))
        };
        let salts: std::collections::BTreeSet<u64> =
            slots(256).map(|(connection, request)| retry_salt(connection, request)).collect();
        assert_eq!(salts.len(), 256 * REQUESTS, "two slots share a retry salt");

        let policy = RetryPolicy::backoff_ms(1, 250);
        let first_retries: std::collections::BTreeSet<std::time::Duration> = slots(16)
            .map(|(connection, request)| policy.delay(1, retry_salt(connection, request), 0.0))
            .collect();
        assert_eq!(first_retries.len(), 16 * REQUESTS, "two slots retry in lockstep");
    }

    /// The parity gate fires on a single flipped bit in any field of any
    /// record, for every query kind, and passes the untouched answer.
    #[test]
    fn verify_rejects_an_answer_one_bit_off_the_reference() {
        let space = load_space(true, &AnalyticBackend);
        let direct = Engine::new(1).sweep(&space, &AnalyticBackend, &SweepConfig::default());
        let reference = Reference {
            top: top_k(&direct.records, 10),
            frontier_cores: pareto_frontier(&direct.records, CostAxis::Cores),
            frontier_area: pareto_frontier(&direct.records, CostAxis::Area),
            records: direct.records.clone(),
            space,
        };
        let n = reference.space.len();
        let flips: [fn(&mut EvalRecord); 4] = [
            |r| r.index ^= 1,
            |r| r.speedup = f64::from_bits(r.speedup.to_bits() ^ 1),
            |r| r.cores = f64::from_bits(r.cores.to_bits() ^ 1),
            |r| r.area = f64::from_bits(r.area.to_bits() ^ 1),
        ];
        let window = n / 3..n / 3 + 40;
        let queries = [
            (Query::Full, reference.records.clone()),
            (Query::Window(window.clone()), reference.records[window].to_vec()),
            (Query::Top, reference.top.clone()),
            (Query::Frontier(CostAxis::Cores), reference.frontier_cores.clone()),
            (Query::Frontier(CostAxis::Area), reference.frontier_area.clone()),
        ];
        let chunk = |start: usize, records: &[EvalRecord]| {
            vec![
                Response::SweepChunk { start, records: to_wire(records) },
                Response::SweepDone { stats: direct.stats },
            ]
        };
        let answer = |query: &Query, records: &[EvalRecord]| match query {
            Query::Full => chunk(0, records),
            Query::Window(window) => chunk(window.start, records),
            Query::Top | Query::Frontier(_) => {
                vec![Response::Records { records: to_wire(records) }]
            }
        };
        for (query, truth) in &queries {
            assert!(!truth.is_empty(), "{query:?}");
            assert_eq!(query.verify(answer(query, truth), &reference), Ok(true), "{query:?}");
            for at in [0, truth.len() - 1] {
                for (field, flip) in flips.iter().enumerate() {
                    let mut wrong = truth.clone();
                    flip(&mut wrong[at]);
                    assert_eq!(
                        query.verify(answer(query, &wrong), &reference),
                        Ok(false),
                        "{query:?}: field {field} of record {at} flipped"
                    );
                }
            }
        }
    }

    #[test]
    fn metrics_check_flags_missing_and_zero_series() {
        let options = parse(&[]).unwrap();
        assert!(
            !check_metrics("not json", &options, true).is_empty(),
            "malformed payloads must be reported"
        );
        let empty = r#"{"counters":{},"gauges":{},"histograms":{}}"#;
        let problems = check_metrics(empty, &options, true);
        assert!(problems.iter().any(|p| p.contains("requests_total_sweep")), "{problems:?}");
        assert!(problems.iter().any(|p| p.contains("executor_queue_depth")), "{problems:?}");

        // A snapshot with every required series present and active passes.
        let hist = r#"{"count":3,"sum":1.5,"buckets":[]}"#;
        let good = format!(
            concat!(
                "{{\"counters\":{{\"requests_total_ping\":2,\"requests_total_stats\":4,",
                "\"requests_total_sweep\":8,\"requests_total_prepare\":1,",
                "\"requests_total_top_k\":3,\"requests_total_pareto\":3,",
                "\"cache_hits\":100,\"busy_rejections\":0,",
                "\"planner_coalesced_requests\":0,\"planner_shared_scenarios\":0,",
                "\"planner_cost_rejections\":0}},",
                "\"gauges\":{{\"executor_queue_depth\":0,\"alloc_live_bytes\":10,",
                "\"alloc_peak_bytes\":20}},",
                "\"histograms\":{{\"serve_request_ms_sweep\":{h},",
                "\"serve_pipeline_depth\":{h},\"dse_batch_ms\":{h}}}}}"
            ),
            h = hist
        );
        assert_eq!(check_metrics(&good, &options, true), Vec::<String>::new());

        // Zero where load guarantees activity is a failure, not a pass —
        // but a backend that does not memoise guarantees no cache hits.
        let zeroed = good.replace("\"cache_hits\":100", "\"cache_hits\":0");
        assert!(check_metrics(&zeroed, &options, true).iter().any(|p| p.contains("cache_hits")));
        assert_eq!(check_metrics(&zeroed, &options, false), Vec::<String>::new());

        // The planner series must be exported even at zero activity...
        let no_planner = good.replace("\"planner_coalesced_requests\":0,", "");
        assert!(check_metrics(&no_planner, &options, true)
            .iter()
            .any(|p| p.contains("planner_coalesced_requests")));
        // ...and overlap mode does not demand the mixed-workload verbs its
        // shape never sends.
        let overlap = parse(&["--overlap".to_string()]).unwrap();
        let no_mix = good
            .replace("\"requests_total_top_k\":3,", "\"requests_total_top_k\":0,")
            .replace("\"requests_total_pareto\":3,", "\"requests_total_pareto\":0,");
        assert_eq!(check_metrics(&no_mix, &overlap, true), Vec::<String>::new());
        assert!(check_metrics(&no_mix, &options, true)
            .iter()
            .any(|p| p.contains("requests_total_top_k")));
    }

    #[test]
    fn query_mix_is_deterministic_and_windows_stay_in_bounds() {
        let n = 1000;
        for connection in 0..20 {
            for request in 0..12 {
                let a = Query::for_slot(connection, request, n, false);
                let b = Query::for_slot(connection, request, n, false);
                assert_eq!(format!("{a:?}"), format!("{b:?}"));
                if let Query::Window(window) = a {
                    assert!(window.start < window.end && window.end <= n);
                }
            }
        }
    }

    #[test]
    fn load_space_matches_the_measured_backend_catalogue() {
        let measured =
            mp_dse::backend::MeasuredBackend::new(crate::dse_cmd::synthetic_calibrations());
        let space = load_space(true, &measured);
        let result = Engine::new(1).sweep(&space, &measured, &SweepConfig::default());
        assert!(result.stats.valid > 0, "measured load space must resolve calibrations");
        let analytic_space = load_space(true, &AnalyticBackend);
        assert!(analytic_space.len() > 1000);
    }
}
