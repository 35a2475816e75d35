//! The `repro load` subcommand: a closed-loop load generator for `repro
//! serve`.
//!
//! Drives N concurrent connections (default 16) against a running sweep
//! service for two passes — `cold`, then `warm` — of mixed queries (full
//! sweeps, index-range sweeps, top-k, Pareto), and reports queries/s, tail
//! latency percentiles, a log-scale latency histogram and the per-pass cache
//! hit rate. Every response is checked **bit-identical** against a direct
//! local `Engine::sweep` of the same space with the same backend, so the run
//! doubles as a differential test; the command exits non-zero on any parity
//! failure, or when the cache did not behave as the backend says it should:
//! a backend that memoises (`sim`, `comm`) must answer the warm pass with a
//! hit rate above 90%, one that does not (analytic, measured) must leave the
//! server's cache untouched — no probes, inserts or entries.
//!
//! `--pipelined` switches each connection to the v2 protocol's pipelined
//! mode: `--depth` requests are written back-to-back before any response is
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
//! windows coalesce. The report then carries per-pass planner deltas read
//! from the server's own metrics — scenarios evaluated per distinct
//! scenario, coalesced requests, shared scenarios — and the run fails
//! unless coalescing actually happened.

use std::io::BufRead;
use std::ops::Range;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use mp_dse::backend::EvalBackend;
use mp_dse::prelude::*;
use mp_model::params::AppClass;
use mp_obs::hist::{percentile_of_sorted, HistogramSnapshot, LATENCY_BOUNDS_MS};
use mp_serve::prelude::*;

use crate::cli;

/// The `load` flags that consume a value token (see
/// [`crate::dse_cmd::VALUE_FLAGS`] for why this lives next to `parse`).
pub const VALUE_FLAGS: &[&str] = &[
    "--addr",
    "--socket",
    "--clients",
    "--requests",
    "--shards",
    "--backend",
    "--chunk",
    "--depth",
];

/// The subcommand's usage, printed after a parse error and in `repro`'s
/// own usage.
pub const USAGE: &str =
    "repro load [--addr HOST:PORT | --socket PATH] [--clients N] [--requests N] \
     [--backend analytic|comm|sim|measured] [--chunk N] [--shards N (with --spawn)] \
     [--pipelined] [--depth N] [--overlap] [--quick] [--json] [--spawn] [--shutdown]";

/// Deepest supported pipeline. Must stay safely below the server's
/// per-connection pipeline cap (128): a client that writes more requests
/// than the server is willing to buffer — while itself not reading
/// responses — deadlocks on its own socket, by design.
const MAX_DEPTH: usize = 64;

/// Attempts per query before a persistent `busy` rejection counts as a
/// failure.
const BUSY_RETRIES: usize = 200;

#[derive(Debug)]
struct Options {
    endpoint: Endpoint,
    endpoint_explicit: bool,
    clients: usize,
    requests: usize,
    quick: bool,
    json: bool,
    spawn: bool,
    shards: usize,
    backend: String,
    shutdown: bool,
    chunk: usize,
    pipelined: bool,
    depth: usize,
    overlap: bool,
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut options = Options {
        endpoint: Endpoint::Tcp("127.0.0.1:7077".to_string()),
        endpoint_explicit: false,
        clients: 16,
        requests: 6,
        quick: false,
        json: false,
        spawn: false,
        shards: 4,
        backend: "analytic".to_string(),
        shutdown: false,
        chunk: 0,
        pipelined: false,
        depth: 8,
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
                "--requests" => {
                    options.requests = cli::parse_count(arg, &value, 1, cli::MAX_COUNT)?;
                }
                "--shards" => options.shards = cli::parse_parallelism(arg, &value)?,
                "--backend" => options.backend = value,
                "--chunk" => options.chunk = cli::parse_count(arg, &value, 1, cli::MAX_COUNT)?,
                "--depth" => options.depth = cli::parse_count(arg, &value, 1, MAX_DEPTH)?,
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

/// Bitwise record-list equality (index, speedup, cores, area).
pub(crate) fn records_identical(a: &[EvalRecord], b: &[EvalRecord]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b.iter()).all(|(x, y)| {
            x.index == y.index
                && x.speedup.to_bits() == y.speedup.to_bits()
                && x.cores.to_bits() == y.cores.to_bits()
                && x.area.to_bits() == y.area.to_bits()
        })
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
    if options.clients >= 2 && options.requests >= 3 && !options.overlap {
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

/// One snapshot of the server-side counters the overlap report tracks.
struct PlannerCounters {
    scenarios_evaluated: f64,
    coalesced_requests: f64,
    shared_scenarios: f64,
}

/// Read the planner-relevant counters from the server's live metrics
/// (absent series read as zero, so deltas stay well-defined on old servers).
fn planner_counters(control: &mut Client) -> Result<PlannerCounters, String> {
    let (json, _) = control.metrics().map_err(|e| format!("metrics failed: {e}"))?;
    let value = serde_json::parse(&json).map_err(|e| format!("metrics response: {e}"))?;
    let counter = |name: &str| {
        metrics_series(&value, "counters", name).and_then(|v| v.as_f64()).unwrap_or(0.0)
    };
    Ok(PlannerCounters {
        scenarios_evaluated: counter("dse_scenarios_evaluated"),
        coalesced_requests: counter("planner_coalesced_requests"),
        shared_scenarios: counter("planner_shared_scenarios"),
    })
}

/// The pass's latency histogram: the shared mp-obs snapshot type over the
/// canonical [`LATENCY_BOUNDS_MS`] buckets (bit-identical bounds and JSON
/// layout to the hand-rolled histogram this harness used to carry).
fn latency_histogram(latencies_s: &[f64]) -> HistogramSnapshot {
    let latencies_ms: Vec<f64> = latencies_s.iter().map(|s| s * 1e3).collect();
    HistogramSnapshot::from_values(&LATENCY_BOUNDS_MS, &latencies_ms)
}

/// Per-pass planner activity, read as counter deltas from the *server's*
/// metrics registry (over the wire, so `--spawn` measures the child).
struct OverlapStats {
    /// Scenarios in one distinct sweep of the driven space.
    distinct_scenarios: usize,
    /// `dse_scenarios_evaluated` delta: scenarios the engine
    /// processed (cache-served ones included — the cache removes backend
    /// calls, the coalescing planner removes whole duplicate engine passes).
    scenarios_evaluated: u64,
    /// Engine passes per distinct scenario — the overlap benchmark's cost
    /// metric (1.0 = perfect sharing; K duplicate sweeps with coalescing
    /// disabled score K).
    evals_per_distinct: f64,
    /// `planner_coalesced_requests` delta.
    coalesced_requests: u64,
    /// `planner_shared_scenarios` delta.
    shared_scenarios: u64,
}

impl OverlapStats {
    fn json(&self) -> String {
        format!(
            "{{\"distinct_scenarios\":{},\"scenarios_evaluated\":{},\"evals_per_distinct\":{},\"coalesced_requests\":{},\"shared_scenarios\":{}}}",
            self.distinct_scenarios,
            self.scenarios_evaluated,
            self.evals_per_distinct,
            self.coalesced_requests,
            self.shared_scenarios,
        )
    }
}

/// Outcome of one load pass.
struct PassReport {
    name: &'static str,
    requests: usize,
    elapsed_seconds: f64,
    queries_per_second: f64,
    p50_ms: f64,
    p95_ms: f64,
    p99_ms: f64,
    max_ms: f64,
    parity_failures: usize,
    busy_retries: u64,
    busy_exhausted: usize,
    cache_hits: u64,
    cache_misses: u64,
    hit_rate: f64,
    histogram: HistogramSnapshot,
    /// Planner deltas (overlap mode only).
    overlap: Option<OverlapStats>,
}

impl PassReport {
    fn json(&self) -> String {
        format!(
            "{{\"name\":\"{}\",\"requests\":{},\"elapsed_seconds\":{},\"queries_per_second\":{},\"p50_ms\":{},\"p95_ms\":{},\"p99_ms\":{},\"max_ms\":{},\"parity_failures\":{},\"busy_retries\":{},\"busy_exhausted\":{},\"cache_hits\":{},\"cache_misses\":{},\"hit_rate\":{},\"latency_histogram\":{}{}}}",
            self.name,
            self.requests,
            self.elapsed_seconds,
            self.queries_per_second,
            self.p50_ms,
            self.p95_ms,
            self.p99_ms,
            self.max_ms,
            self.parity_failures,
            self.busy_retries,
            self.busy_exhausted,
            self.cache_hits,
            self.cache_misses,
            self.hit_rate,
            self.histogram.json_buckets(),
            match &self.overlap {
                Some(overlap) => format!(",\"overlap\":{}", overlap.json()),
                None => String::new(),
            },
        )
    }
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
    /// The query for one (connection, request) slot. Overlap mode sends the
    /// identical full sweep from every slot — maximum in-flight duplication,
    /// the shape the planner's coalescing table exists for.
    fn for_options(connection: usize, request: usize, n: usize, options: &Options) -> Query {
        if options.overlap {
            Query::Full
        } else {
            Query::for_slot(connection, request, n)
        }
    }

    /// The same mixed workload shape the v1 generator used, deterministic in
    /// (connection, request index) so reruns are reproducible.
    fn for_slot(connection: usize, request: usize, n: usize) -> Query {
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

    fn request(&self, reference: &Reference, spec: &SpaceSpec, chunk: usize) -> Request {
        let space = spec.clone();
        match self {
            Query::Full => Request::Sweep { space, start: 0, end: reference.space.len(), chunk },
            Query::Window(window) => {
                Request::Sweep { space, start: window.start, end: window.end, chunk }
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
                        && records_identical(&records, &reference.records)
                })
                .unwrap_or(false)),
            Query::Window(window) => Ok(assemble_sweep(responses, window)
                .map(|(records, _)| records_identical(&records, &reference.records[window.clone()]))
                .unwrap_or(false)),
            Query::Top | Query::Frontier(_) => {
                let truth = match self {
                    Query::Top => &reference.top,
                    Query::Frontier(CostAxis::Cores) => &reference.frontier_cores,
                    _ => &reference.frontier_area,
                };
                match responses.as_slice() {
                    [Response::Records { records }] => {
                        Ok(records_identical(&from_wire(records), truth))
                    }
                    _ => Ok(false),
                }
            }
        }
    }
}

/// What one query ultimately amounted to.
enum QueryOutcome {
    /// A response arrived and matched the local ground truth bitwise.
    Verified,
    /// A response arrived and did **not** match — a real parity failure.
    Mismatch,
    /// The server was still rejecting with `busy` after the whole retry
    /// budget: the query was never answered, so it is server saturation,
    /// not a parity verdict. Counted (and failed) separately so the
    /// differential-test report stays truthful.
    BusyExhausted,
}

/// Run one query with bounded busy-retry via the shared client
/// [`RetryPolicy`] (jittered exponential backoff, floored at the server's
/// `estimated_cost_ms` hint). Returns the outcome plus how many busy
/// rejections were absorbed.
fn run_query(
    client: &mut Client,
    query: &Query,
    reference: &Reference,
    spec: &SpaceSpec,
    chunk: usize,
) -> Result<(QueryOutcome, u64), String> {
    let policy = RetryPolicy::backoff_ms(1, 250).with_retries(BUSY_RETRIES);
    let request = query.request(reference, spec, chunk);
    let salt = reference.space.len() as u64 ^ ((chunk as u64) << 32);
    let outcome =
        client.call_with_retry(&request, &policy, salt).map_err(|e| format!("call: {e}"))?;
    if outcome.exhausted {
        return Ok((QueryOutcome::BusyExhausted, outcome.busy_retries));
    }
    match query.verify(outcome.responses, reference) {
        Ok(true) => Ok((QueryOutcome::Verified, outcome.busy_retries)),
        Ok(false) => Ok((QueryOutcome::Mismatch, outcome.busy_retries)),
        // call_with_retry only hands back a busy answer when the budget is
        // exhausted, which is handled above.
        Err(()) => Ok((QueryOutcome::BusyExhausted, outcome.busy_retries)),
    }
}

/// Aggregated outcome of one pass.
struct PassOutcome {
    latencies: Vec<f64>,
    failures: usize,
    busy_retries: u64,
    busy_exhausted: usize,
}

/// Run one pass of `clients × requests` mixed queries. Connections are
/// multiplexed over at most 64 generator threads. In pipelined mode each
/// connection sends `depth` requests back-to-back per wave and the recorded
/// latencies are wave-completion times; otherwise one latency per request.
fn run_pass(
    endpoint: &Endpoint,
    reference: &Reference,
    options: &Options,
) -> Result<PassOutcome, String> {
    let clients = options.clients;
    let requests = options.requests;
    let threads = clients.min(64);
    let failures = std::sync::atomic::AtomicUsize::new(0);
    let busy_retries = std::sync::atomic::AtomicU64::new(0);
    let busy_exhausted = std::sync::atomic::AtomicUsize::new(0);
    let latencies = std::sync::Mutex::new(Vec::with_capacity(clients * requests));
    let n = reference.space.len();
    std::thread::scope(|scope| -> Result<(), String> {
        let mut handles = Vec::with_capacity(threads);
        for thread_index in 0..threads {
            let failures = &failures;
            let busy_retries = &busy_retries;
            let busy_exhausted = &busy_exhausted;
            let latencies = &latencies;
            handles.push(scope.spawn(move || -> Result<(), String> {
                // This thread's share of the connection ids.
                let mine: Vec<usize> = (thread_index..clients).step_by(threads).collect();
                let mut conns = Vec::with_capacity(mine.len());
                for &connection in &mine {
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
                let mut local_lat: Vec<f64> = Vec::new();
                let mut local_fail = 0usize;
                let mut local_busy = 0u64;
                let mut local_exhausted = 0usize;

                if options.pipelined {
                    let mut sent = 0usize;
                    while sent < requests {
                        let wave = options.depth.min(requests - sent);
                        for (connection, client, spec) in conns.iter_mut() {
                            let queries: Vec<Query> = (sent..sent + wave)
                                .map(|request| Query::for_options(*connection, request, n, options))
                                .collect();
                            let wire: Vec<Request> = queries
                                .iter()
                                .map(|q| q.request(reference, spec, options.chunk))
                                .collect();
                            let started = Instant::now();
                            let responses = client.call_pipelined(wire).map_err(|e| {
                                format!("connection {connection}: pipelined wave: {e}")
                            })?;
                            local_lat.push(started.elapsed().as_secs_f64());
                            for (query, answer) in queries.iter().zip(responses) {
                                match query.verify(answer, reference) {
                                    Ok(true) => {}
                                    Ok(false) => local_fail += 1,
                                    Err(()) => {
                                        // Busy mid-pipeline: retry solo.
                                        let (outcome, retries) = run_query(
                                            client,
                                            query,
                                            reference,
                                            spec,
                                            options.chunk,
                                        )?;
                                        local_busy += 1 + retries;
                                        match outcome {
                                            QueryOutcome::Verified => {}
                                            QueryOutcome::Mismatch => local_fail += 1,
                                            QueryOutcome::BusyExhausted => local_exhausted += 1,
                                        }
                                    }
                                }
                            }
                        }
                        sent += wave;
                    }
                } else {
                    for request in 0..requests {
                        for (connection, client, spec) in conns.iter_mut() {
                            let query = Query::for_options(*connection, request, n, options);
                            let started = Instant::now();
                            let (outcome, retries) =
                                run_query(client, &query, reference, spec, options.chunk)
                                    .map_err(|e| format!("connection {connection}: {e}"))?;
                            local_lat.push(started.elapsed().as_secs_f64());
                            local_busy += retries;
                            match outcome {
                                QueryOutcome::Verified => {}
                                QueryOutcome::Mismatch => local_fail += 1,
                                QueryOutcome::BusyExhausted => local_exhausted += 1,
                            }
                        }
                    }
                }

                failures.fetch_add(local_fail, std::sync::atomic::Ordering::Relaxed);
                busy_retries.fetch_add(local_busy, std::sync::atomic::Ordering::Relaxed);
                busy_exhausted.fetch_add(local_exhausted, std::sync::atomic::Ordering::Relaxed);
                latencies.lock().unwrap_or_else(|e| e.into_inner()).extend(local_lat);
                Ok(())
            }));
        }
        for handle in handles {
            handle.join().map_err(|_| "a load thread panicked".to_string())??;
        }
        Ok(())
    })?;
    let latencies = latencies.into_inner().unwrap_or_else(|e| e.into_inner());
    Ok(PassOutcome {
        latencies,
        failures: failures.into_inner(),
        busy_retries: busy_retries.into_inner(),
        busy_exhausted: busy_exhausted.into_inner(),
    })
}

/// Spawn `repro serve` as a child on a free port and wait for its readiness
/// line. Returns the child and the endpoint it listens on.
fn spawn_server(options: &Options) -> Result<(std::process::Child, Endpoint), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate repro binary: {e}"))?;
    let shards = options.shards.to_string();
    let mut child = std::process::Command::new(exe)
        .args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--shards",
            &shards,
            "--backend",
            &options.backend,
        ])
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
        Ok(ok) => {
            if ok {
                ExitCode::SUCCESS
            } else {
                eprintln!(
                    "load run failed its acceptance checks (parity; >90% warm hit rate, or an \
                     untouched cache for a backend that does not memoise; live metrics; and \
                     under --overlap observed coalescing)"
                );
                ExitCode::FAILURE
            }
        }
        Err(message) => {
            eprintln!("{message}");
            ExitCode::FAILURE
        }
    }
}

/// The measured load run proper; returns whether the acceptance checks held.
fn drive(
    options: &Options,
    backend: &(dyn EvalBackend + Send + Sync),
    endpoint: &Endpoint,
) -> Result<bool, String> {
    // Wait for the server (freshly spawned ones need a moment to bind).
    let mut control = None;
    let deadline = Instant::now() + std::time::Duration::from_secs(10);
    while control.is_none() {
        match Client::connect(endpoint) {
            Ok(client) => control = Some(client),
            Err(e) if Instant::now() < deadline => {
                let _ = e;
                std::thread::sleep(std::time::Duration::from_millis(50));
            }
            Err(e) => return Err(format!("cannot reach {endpoint}: {e}")),
        }
    }
    let mut control = control.expect("connected above");
    let version = control.ping().map_err(|e| format!("ping failed: {e}"))?;

    // Local ground truth: one direct engine sweep of the same space.
    let space = load_space(options.quick, backend);
    let direct = Engine::with_all_cores().sweep(&space, backend, &SweepConfig::default());
    let reference = Arc::new(Reference {
        top: top_k(&direct.records, 10),
        frontier_cores: pareto_frontier(&direct.records, CostAxis::Cores),
        frontier_area: pareto_frontier(&direct.records, CostAxis::Area),
        records: direct.records,
        space,
    });

    let mut reports = Vec::with_capacity(2);
    let mut parity_failures = 0usize;
    let mut busy_exhausted = 0usize;
    for pass in ["cold", "warm"] {
        let before = control.stats().map_err(|e| format!("stats failed: {e}"))?.cache;
        let planner_before =
            if options.overlap { Some(planner_counters(&mut control)?) } else { None };
        let started = Instant::now();
        let outcome = run_pass(endpoint, &reference, options)?;
        let elapsed = started.elapsed().as_secs_f64();
        let after = control.stats().map_err(|e| format!("stats failed: {e}"))?.cache;
        let overlap = match &planner_before {
            Some(planner_before) => {
                let planner_after = planner_counters(&mut control)?;
                let evaluated = (planner_after.scenarios_evaluated
                    - planner_before.scenarios_evaluated)
                    .max(0.0) as u64;
                let distinct = reference.space.len();
                Some(OverlapStats {
                    distinct_scenarios: distinct,
                    scenarios_evaluated: evaluated,
                    evals_per_distinct: evaluated as f64 / distinct.max(1) as f64,
                    coalesced_requests: (planner_after.coalesced_requests
                        - planner_before.coalesced_requests)
                        .max(0.0) as u64,
                    shared_scenarios: (planner_after.shared_scenarios
                        - planner_before.shared_scenarios)
                        .max(0.0) as u64,
                })
            }
            None => None,
        };
        let mut latencies = outcome.latencies;
        latencies.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
        let requests = options.clients * options.requests;
        let hits = after.hits - before.hits;
        let misses = after.misses - before.misses;
        parity_failures += outcome.failures;
        busy_exhausted += outcome.busy_exhausted;
        reports.push(PassReport {
            name: pass,
            requests,
            elapsed_seconds: elapsed,
            queries_per_second: requests as f64 / elapsed.max(1e-9),
            p50_ms: percentile_of_sorted(&latencies, 0.50) * 1e3,
            p95_ms: percentile_of_sorted(&latencies, 0.95) * 1e3,
            p99_ms: percentile_of_sorted(&latencies, 0.99) * 1e3,
            max_ms: latencies.last().copied().unwrap_or(0.0) * 1e3,
            parity_failures: outcome.failures,
            busy_retries: outcome.busy_retries,
            busy_exhausted: outcome.busy_exhausted,
            cache_hits: hits,
            cache_misses: misses,
            hit_rate: if hits + misses == 0 { 0.0 } else { hits as f64 / (hits + misses) as f64 },
            histogram: latency_histogram(&latencies),
            overlap,
        });
    }

    let warm = reports.last().expect("two passes ran");
    let warm_hit_rate = warm.hit_rate;

    // The cache check follows the backend (the local reference is built by
    // the same constructor the server uses): one that memoises must answer
    // the warm pass from the cache; one that does not must never touch it.
    let memoises = backend.memoise();
    let cache = control.stats().map_err(|e| format!("stats failed: {e}"))?.cache;
    let cache_ok = if memoises {
        warm_hit_rate > 0.9 && warm.cache_hits > 0
    } else {
        cache.probes == 0 && cache.inserts == 0 && cache.entries == 0
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
    let coalesced_total: u64 =
        reports.iter().filter_map(|r| r.overlap.as_ref()).map(|o| o.coalesced_requests).sum();
    let coalesce_ok = !options.overlap || coalesced_total > 0;

    let ok = parity_failures == 0 && busy_exhausted == 0 && cache_ok && metrics_ok && coalesce_ok;

    if options.shutdown || options.spawn {
        control.shutdown().map_err(|e| format!("shutdown failed: {e}"))?;
    }

    if options.json {
        let passes: Vec<String> = reports.iter().map(PassReport::json).collect();
        println!(
            "{{\"experiment\":\"load\",\"endpoint\":\"{endpoint}\",\"protocol\":\"{version}\",\"backend\":\"{}\",\"clients\":{},\"requests_per_client\":{},\"pipelined\":{},\"depth\":{},\"overlap_mode\":{},\"scenarios_per_sweep\":{},\"passes\":[{}],\"parity_failures\":{parity_failures},\"busy_exhausted\":{busy_exhausted},\"warm_hit_rate\":{warm_hit_rate},\"metrics_ok\":{metrics_ok},\"metrics_problems\":[{}],\"ok\":{ok}}}",
            backend.name(),
            options.clients,
            options.requests,
            options.pipelined,
            if options.pipelined { options.depth } else { 1 },
            options.overlap,
            reference.space.len(),
            passes.join(","),
            metrics_problems
                .iter()
                .map(|p| format!("\"{}\"", p.replace('"', "'")))
                .collect::<Vec<_>>()
                .join(","),
        );
    } else {
        println!(
            "closed-loop load against {endpoint} ({version}, backend `{}`{})",
            backend.name(),
            if options.pipelined {
                format!(", pipelined depth {}", options.depth)
            } else {
                String::new()
            },
        );
        println!(
            "  {} connections x {} requests/pass over a {}-scenario space",
            options.clients,
            options.requests,
            reference.space.len(),
        );
        let latency_unit = if options.pipelined { "wave" } else { "request" };
        for report in &reports {
            println!(
                "  {:<4} pass: {:>7.1} queries/s | {latency_unit} latency p50 {:>7.1}ms p95 {:>7.1}ms p99 {:>7.1}ms max {:>7.1}ms | cache {} hits / {} misses ({:.1}% hit rate){}",
                report.name,
                report.queries_per_second,
                report.p50_ms,
                report.p95_ms,
                report.p99_ms,
                report.max_ms,
                report.cache_hits,
                report.cache_misses,
                report.hit_rate * 100.0,
                if report.busy_retries > 0 {
                    format!(" | {} busy retries", report.busy_retries)
                } else {
                    String::new()
                },
            );
            println!("       histogram: {}", report.histogram.render());
            if let Some(overlap) = &report.overlap {
                println!(
                    "       overlap: {:.2} evaluations per distinct scenario ({} evaluated / {} distinct) | {} coalesced requests | {} shared scenarios",
                    overlap.evals_per_distinct,
                    overlap.scenarios_evaluated,
                    overlap.distinct_scenarios,
                    overlap.coalesced_requests,
                    overlap.shared_scenarios,
                );
            }
        }
        if options.overlap {
            println!(
                "  overlap: {} coalesced requests across both passes{}",
                coalesced_total,
                if coalesce_ok { "" } else { " — FAIL: duplicate sweeps never coalesced" },
            );
        }
        if metrics_ok {
            println!("  metrics: all core series present and active");
        } else {
            for problem in &metrics_problems {
                println!("  metrics: {problem}");
            }
        }
        println!(
            "  parity: {}{} | {} ({}) ",
            if parity_failures == 0 {
                "every response bit-identical to Engine::sweep".to_string()
            } else {
                format!("{parity_failures} FAILURES")
            },
            if busy_exhausted == 0 {
                String::new()
            } else {
                // Saturation, not a correctness verdict: these queries were
                // never answered, so they are reported apart from parity.
                format!(" | {busy_exhausted} queries unanswered after busy-retry budget")
            },
            if memoises {
                format!("warm hit rate {:.1}%", warm_hit_rate * 100.0)
            } else {
                format!(
                    "backend does not memoise: cache {} probes / {} inserts / {} entries",
                    cache.probes, cache.inserts, cache.entries
                )
            },
            if ok { "PASS" } else { "FAIL" },
        );
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_defaults_sustain_sixteen_clients_and_reject_bad_counts() {
        let options = parse(&[]).unwrap();
        assert_eq!(options.clients, 16, "acceptance floor: >= 16 concurrent clients");
        assert_eq!(options.shards, 4);
        assert!(!options.pipelined);
        assert_eq!(options.depth, 8);
        assert!(parse(&["--clients".to_string(), "0".to_string()]).is_err());
        assert!(parse(&["--requests".to_string(), "0".to_string()]).is_err());
        assert!(parse(&["--chunk".to_string(), "0".to_string()]).is_err());
        assert!(parse(&["--depth".to_string(), "0".to_string()]).is_err());
        assert!(
            parse(&["--depth".to_string(), "65".to_string()]).is_err(),
            "depth must stay below the server's pipeline cap"
        );
        assert!(parse(&["--bogus".to_string()]).is_err());
        // Removed flags are unknown options like any other.
        for removed in
            ["--no-steal", "--no-coalesce", "--no-prepare", "--skew", "--fault-latency-ms"]
        {
            let message = parse(&[removed.to_string(), "--spawn".to_string()]).unwrap_err();
            assert!(message.contains("unknown load option"), "{message}");
        }
        assert!(cli::backend_by_name("nope").is_err());
        let conflict =
            parse(&["--spawn".to_string(), "--addr".to_string(), "1.2.3.4:1".to_string()])
                .unwrap_err();
        assert!(conflict.contains("cannot be combined"), "{conflict}");
        let pipelined =
            parse(&["--pipelined".to_string(), "--depth".to_string(), "4".to_string()]).unwrap();
        assert!(pipelined.pipelined);
        assert_eq!(pipelined.depth, 4);

        // Overlap mode.
        assert!(!parse(&[]).unwrap().overlap);
        assert!(parse(&["--overlap".to_string()]).unwrap().overlap);
    }

    #[test]
    fn overlap_mode_sends_the_identical_full_sweep_from_every_slot() {
        let overlap = parse(&["--overlap".to_string()]).unwrap();
        let mixed = parse(&[]).unwrap();
        let n = 500;
        for connection in 0..8 {
            for request in 0..6 {
                assert!(matches!(
                    Query::for_options(connection, request, n, &overlap),
                    Query::Full
                ));
            }
        }
        // The mixed shape still rotates through windows and analyses.
        assert!(matches!(Query::for_options(0, 1, n, &mixed), Query::Window(_)));
        assert!(matches!(Query::for_options(0, 2, n, &mixed), Query::Top));
    }

    #[test]
    fn percentiles_are_monotone() {
        let sorted: Vec<f64> = (0..100).map(|i| i as f64).collect();
        assert_eq!(percentile_of_sorted(&sorted, 0.0), 0.0);
        assert_eq!(percentile_of_sorted(&sorted, 1.0), 99.0);
        assert!(percentile_of_sorted(&sorted, 0.5) <= percentile_of_sorted(&sorted, 0.95));
        assert_eq!(percentile_of_sorted(&[], 0.5), 0.0);
    }

    #[test]
    fn histogram_buckets_cover_all_latencies() {
        // Latencies arrive in seconds; the shared snapshot type buckets them
        // in milliseconds over the canonical bounds.
        let latencies = [0.0001, 0.001, 0.050, 1.0, 100.0];
        let histogram = latency_histogram(&latencies);
        assert_eq!(histogram.count(), latencies.len() as u64);
        assert_eq!(*histogram.counts.last().unwrap(), 1, "100s lands in +inf");
        assert!(histogram.json_buckets().contains("\"le_ms\":0.25"));
        assert!(!histogram.render().is_empty());
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
                let a = Query::for_slot(connection, request, n);
                let b = Query::for_slot(connection, request, n);
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
