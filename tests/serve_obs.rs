//! Observability tests of the serve stack: the protocol v2 `metrics` verb
//! round-trips the registry snapshot through the real client across engine
//! sizes, the `stats` response carries the same snapshot, every request
//! counts once on its per-verb series, two services in one process keep
//! their series and their spans apart, and every socket request leaves
//! exactly one request span, timed like its `serve_request_ms_<verb>`
//! sample, from its decode to the flush of its terminal response.
//!
//! Each service owns its registry, so the tests assert exact values and run
//! in parallel.

use std::collections::HashMap;
use std::sync::Arc;

use merging_phases::dse::prelude::*;
use merging_phases::model::explore::Figure;
use merging_phases::model::params::AppParams;
use mp_dse::fault::{FaultPlan, FaultyBackend};
use mp_obs::profile::Span;
use mp_serve::prelude::*;

fn space() -> ScenarioSpace {
    ScenarioSpace::new()
        .with_apps(AppParams::table2_all())
        .with_budgets(vec![256.0])
        .clear_designs()
        .add_symmetric_grid((0..32).map(|i| 1.0 + i as f64 * 4.0))
        .with_growths(vec![merging_phases::model::growth::GrowthFunction::Linear])
}

/// A service over the simulator: a backend that memoises, so the cache
/// counters and sweep stats below have traffic to account for.
fn service(shards: usize) -> SweepService {
    SweepService::new(
        Arc::new(SimBackend::new()),
        &ServiceConfig { shards, threads_per_shard: 2, ..ServiceConfig::default() },
    )
}

/// Whether `outer` covers `inner` on the one monotonic clock.
fn contains(outer: &Span, inner: &Span) -> bool {
    outer.start_ns <= inner.start_ns
        && inner.start_ns + inner.duration_ns <= outer.start_ns + outer.duration_ns
}

/// A server's request spans (one per socket request, named for its verb).
fn is_request(span: &Span) -> bool {
    span.category == "request"
}

/// A streamed sweep's per-window spans (`window a..b`).
fn is_window(span: &Span) -> bool {
    span.category == "serve" && span.name.starts_with("window ")
}

/// Pull one named series out of a metrics-snapshot JSON document.
fn series(json: &str, section: &str, name: &str) -> Option<f64> {
    let value = serde_json::parse(json).expect("metrics json parses");
    let section = value.as_map()?.iter().find(|(key, _)| key == section)?.1.clone();
    section.as_map()?.iter().find(|(key, _)| key == name)?.1.as_f64()
}

/// A histogram series' total observation count (histograms export as
/// `{"count":..,"sum":..,"buckets":[..]}` objects, not bare numbers).
fn histogram_count(json: &str, name: &str) -> Option<f64> {
    let value = serde_json::parse(json).expect("metrics json parses");
    let section = value.as_map()?.iter().find(|(key, _)| key == "histograms")?.1.clone();
    let entry = section.as_map()?.iter().find(|(key, _)| key == name)?.1.clone();
    entry.as_map()?.iter().find(|(key, _)| key == "count")?.1.as_f64()
}

#[test]
fn metrics_verb_round_trips_through_the_real_client() {
    for shards in [1usize, 4] {
        let server =
            Server::bind(&Endpoint::Tcp("127.0.0.1:0".into()), Arc::new(service(shards))).unwrap();
        let endpoint = server.endpoint().clone();
        let serving = std::thread::spawn(move || server.run().unwrap());
        let mut client = Client::connect(&endpoint).unwrap();
        let count = |json: &str, name: &str| series(json, "counters", name).unwrap_or(0.0);

        let space = space();
        client.ping().unwrap();
        let (cold, _) = client.sweep(&space, None, 0).unwrap();
        let (warm, _) = client.sweep(&space, None, 0).unwrap();
        assert_eq!(cold.len(), space.len());
        assert_eq!(warm.len(), space.len());
        client.top_k(&space, 5).unwrap();

        let (after_json, prometheus) = client.metrics().unwrap();
        let value = |name: &str| count(&after_json, name);
        assert_eq!(value("requests_total_ping"), 1.0, "shards={shards}");
        assert_eq!(value("requests_total_sweep"), 2.0, "shards={shards}");
        assert_eq!(value("requests_total_top_k"), 1.0, "shards={shards}");
        assert_eq!(value("requests_total_metrics"), 1.0, "shards={shards}");
        // The warm sweep and the top_k over the same space hit every scenario.
        assert_eq!(value("cache_hits"), 2.0 * space.len() as f64, "shards={shards}: warm hits");
        assert!(
            series(&after_json, "gauges", "executor_queue_depth").is_some(),
            "shards={shards}: queue depth gauge exported"
        );
        let sweep_latency = histogram_count(&after_json, "serve_request_ms_sweep");
        assert!(
            sweep_latency.unwrap_or(0.0) >= 2.0,
            "shards={shards}: per-verb latency histogram counts both sweeps"
        );

        // The planner's always-registered series: counters exported from
        // service construction (zero here — one client, no overlap).
        for planner_counter in
            ["planner_coalesced_requests", "planner_shared_scenarios", "planner_cost_rejections"]
        {
            assert!(
                series(&after_json, "counters", planner_counter).is_some(),
                "shards={shards}: {planner_counter} always exported"
            );
        }
        assert_eq!(value("planner_coalesced_requests"), 0.0, "shards={shards}: no overlap here");

        // The Prometheus rendering carries the same series under the
        // scrape-friendly names.
        assert!(prometheus.contains("requests_total_sweep"), "shards={shards}");
        assert!(prometheus.contains("serve_request_ms_sweep"), "shards={shards}");
        assert!(prometheus.contains("planner_coalesced_requests"), "shards={shards}");

        // `stats` embeds the very same snapshot shape.
        let stats = client.stats().unwrap();
        assert!(
            series(&stats.metrics, "counters", "requests_total_sweep").unwrap_or(0.0)
                >= count(&after_json, "requests_total_sweep"),
            "shards={shards}: stats carries the registry snapshot"
        );

        client.shutdown().unwrap();
        serving.join().unwrap();
    }
}

/// One request of every non-job verb (the job verbs have their own suite),
/// plus a sweep the service answers with an error; `Shutdown` comes last.
fn one_of_each(space: &ScenarioSpace) -> Vec<Request> {
    let spec = || SpaceSpec::Explicit(space.clone());
    vec![
        Request::Ping,
        Request::Stats,
        Request::Metrics,
        Request::Catalogue,
        Request::Prepare { space: spec() },
        Request::Sweep { space: spec(), start: 0, end: space.len(), chunk: 0 },
        Request::Sweep { space: spec(), start: 5, end: 1, chunk: 0 },
        Request::TopK { space: spec(), k: 3 },
        Request::Pareto { space: spec(), cost: CostAxis::Cores },
        Request::Curve { figure: Figure::Fig3 },
        Request::Shutdown,
    ]
}

#[test]
fn every_request_counts_once_on_its_verb_in_process_and_over_the_socket() {
    let space = space();
    let service = Arc::new(service(1));
    let counted = Arc::clone(&service);
    let total = |request: &Request| {
        let name = format!("requests_total_{}", request.verb());
        counted.registry().snapshot().counter(&name).unwrap_or(0)
    };

    // In process: a sweep is counted when its ticket is issued, not again
    // per pulled window.
    for request in one_of_each(&space) {
        let before = total(&request);
        if let Answer::Sweep(mut ticket) = service.handle(&request) {
            while service.next_window(&mut ticket).unwrap().is_some() {}
        }
        assert_eq!(total(&request) - before, 1, "in process: {request:?}");
    }

    // Over the socket, through the same dispatch.
    let server = Server::bind(&Endpoint::Tcp("127.0.0.1:0".into()), service).unwrap();
    let endpoint = server.endpoint().clone();
    let serving = std::thread::spawn(move || server.run().unwrap());
    let mut client = Client::connect(&endpoint).unwrap();
    for request in one_of_each(&space) {
        let before = total(&request);
        client.call(request.clone()).unwrap();
        assert_eq!(total(&request) - before, 1, "over the socket: {request:?}");
    }
    serving.join().unwrap();
}

#[test]
fn sweep_stats_stay_exact_under_concurrent_queries() {
    // Result stats come straight from the engine's own sweep and must stay
    // exact however many pool workers and concurrent callers share it:
    // every scenario is counted once, as a hit or as a miss.
    let space = space();
    let n = space.len();
    let direct = Engine::new(2).sweep(&space, &SimBackend::new(), &SweepConfig::default());
    let sequential = service(4);

    let cold = sequential.sweep(&space, None).unwrap();
    assert_eq!(cold.stats.scenarios, n, "each scenario evaluated exactly once");
    assert_eq!(cold.stats.cache_hits, 0);
    assert_eq!(cold.stats.cache_misses as usize, n);
    assert_eq!(cold.stats.warm_entries, 0, "nothing resident at a cold start");

    let warm = sequential.sweep(&space, None).unwrap();
    assert_eq!(warm.stats.scenarios, n);
    assert_eq!(warm.stats.cache_hits as usize, n, "warm hits counted once, not per worker");
    assert_eq!(warm.stats.cache_misses, 0, "a fully warm pass re-evaluates nothing");
    assert_eq!(warm.stats.warm_entries, n, "the cache's residency when the sweep started");
    assert!(warm.stats.threads > 0, "evaluation lanes are reported");
    assert!(
        warm.stats.threads <= 4 * 2,
        "lanes are bounded by shards x threads/shard: {}",
        warm.stats.threads
    );

    // Four callers, four different overlapping ranges, one cold engine, all
    // at once: whichever of them evaluates a shared scenario first, each
    // answer accounts for exactly its own range and carries the direct
    // sweep's bits.
    let service = service(4);
    let ranges = [0..n, 0..n / 2 + 7, n / 3..n, n / 4..3 * n / 4];
    let barrier = std::sync::Barrier::new(ranges.len());
    std::thread::scope(|scope| {
        for range in &ranges {
            let (service, direct, barrier, space) = (&service, &direct, &barrier, &space);
            scope.spawn(move || {
                barrier.wait();
                let result = service.sweep(space, Some(range.clone())).unwrap();
                assert_eq!(result.stats.scenarios, range.len());
                assert_eq!(
                    (result.stats.cache_hits + result.stats.cache_misses) as usize,
                    range.len(),
                    "{range:?}: every scenario is one hit or one miss"
                );
                assert_eq!(result.records.len(), range.len());
                for (record, truth) in result.records.iter().zip(&direct.records[range.clone()]) {
                    assert_eq!(record.index, truth.index, "{range:?}");
                    assert_eq!(record.speedup.to_bits(), truth.speedup.to_bits(), "{range:?}");
                }
            });
        }
    });
    assert_eq!(service.stats().cache.entries, n, "overlapping fills leave one entry per scenario");

    // Nothing registers a series of the removed work-unit scheduler any
    // more: its four `sched_*` series, its queue-wait histogram and the
    // planner's assembly timer.
    let exported = service.registry().snapshot().to_json();
    for family in ["\"sched_", "\"serve_queue_wait", "\"planner_merge"] {
        assert!(!exported.contains(family), "a {family}… series is still exported");
    }
}

#[test]
fn the_stats_and_metrics_verbs_count_the_cache_alike() {
    // One sweep thread: a cold sweep, then one batch holding a duplicate
    // design and the design the first sweep cached.
    let service = SweepService::new(Arc::new(SimBackend::new()), &ServiceConfig::default());
    let mut summed = (0, 0);
    for designs in [&[8.0][..], &[4.0, 4.0, 8.0]] {
        let space = ScenarioSpace::new().clear_designs().add_symmetric_grid(designs.to_vec());
        let stats = service.sweep(&space, None).unwrap().stats;
        summed = (summed.0 + stats.cache_hits, summed.1 + stats.cache_misses);
    }
    assert_eq!(summed, (2, 2), "served: 8.0 and the twin 4.0; computed: 8.0, then 4.0");
    let cache = match service.handle(&Request::Stats) {
        Answer::Response(Response::Stats(stats)) => stats.cache,
        other => panic!("expected stats, got {other:?}"),
    };
    let json = match service.handle(&Request::Metrics) {
        Answer::Response(Response::Metrics { json, .. }) => json,
        other => panic!("expected metrics, got {other:?}"),
    };
    let count = |name: &str| series(&json, "counters", name).map(|value| value as u64);
    assert_eq!((cache.hits, cache.misses), summed, "the stats verb");
    assert_eq!(
        (count("cache_hits"), count("cache_misses")),
        (Some(2), Some(2)),
        "the metrics verb"
    );
}

#[test]
fn two_services_in_one_process_keep_their_series_apart() {
    let space = space();
    let (a, b) = (service(1), service(1));
    // Only A's span recorder is armed, before either service serves.
    a.registry().profiler().set_enabled(true);
    // B serves a little first, so its series exist and hold values.
    b.handle(&Request::Ping);
    b.sweep(&space, None).unwrap();
    let watched = |service: &SweepService| {
        let json = service.stats().metrics;
        let requests: Vec<f64> = ["ping", "sweep", "top_k"]
            .iter()
            .map(|verb| series(&json, "counters", &format!("requests_total_{verb}")).unwrap_or(0.0))
            .collect();
        let scenarios = series(&json, "counters", "dse_scenarios_evaluated").unwrap_or(0.0);
        (requests, scenarios, histogram_count(&json, "dse_batch_ms").unwrap_or(0.0))
    };
    let before = watched(&b);

    a.handle(&Request::Ping);
    let spec = SpaceSpec::Explicit(space.clone());
    let Answer::Sweep(mut ticket) =
        a.handle(&Request::Sweep { space: spec.clone(), start: 0, end: space.len(), chunk: 0 })
    else {
        panic!("a sweep opens a ticket");
    };
    while a.next_window(&mut ticket).unwrap().is_some() {}
    a.handle(&Request::TopK { space: spec, k: 3 });

    assert_eq!(watched(&b), before, "A's traffic moved B's series");
    let (requests, scenarios, batches) = watched(&a);
    assert_eq!(requests, [1.0; 3], "A counts its own ping, sweep and top_k");
    assert_eq!(scenarios, 2.0 * space.len() as f64, "A's sweep and top_k");
    assert!(batches > 0.0);

    // A's recorder holds A's batch spans, one per batch on A's own
    // `dse_batch_ms`, and its sweep's window spans; B's holds nothing.
    let spans = a.registry().profiler().take();
    let batch_spans = spans.iter().filter(|span| span.name.starts_with("batch ")).count();
    assert_eq!(batch_spans as f64, batches, "one span per batch A evaluated, none of B's");
    assert_eq!(spans.iter().filter(|span| is_window(span)).count(), 1, "A's one-window sweep");
    assert!(b.registry().profiler().is_empty(), "B's recorder stays empty");
}

#[test]
fn every_request_records_one_span_timed_like_its_latency_sample() {
    let service = Arc::new(service(2));
    service.registry().profiler().set_enabled(true);
    let server = Server::bind(&Endpoint::Tcp("127.0.0.1:0".into()), Arc::clone(&service)).unwrap();
    let endpoint = server.endpoint().clone();
    let serving = std::thread::spawn(move || server.run().unwrap());

    // Drive a mixed load over two connections, one request at a time; every
    // socket request must produce exactly one request span.
    let space = space();
    let mut requests = 0usize;
    for _ in 0..2 {
        let mut client = Client::connect(&endpoint).unwrap();
        client.ping().unwrap();
        client.stats().unwrap();
        client.sweep(&space, None, 0).unwrap();
        client.top_k(&space, 3).unwrap();
        client.metrics().unwrap();
        requests += 5;
    }
    let mut control = Client::connect(&endpoint).unwrap();
    control.shutdown().unwrap();
    requests += 1;
    serving.join().unwrap();

    let spans = service.registry().profiler().take();
    let request_spans: Vec<&Span> = spans.iter().filter(|span| is_request(span)).collect();
    let windows: Vec<&Span> = spans.iter().filter(|span| is_window(span)).collect();
    assert_eq!(request_spans.len(), requests, "one request span per socket request");

    let mut verbs: HashMap<&str, Vec<&Span>> = HashMap::new();
    for span in &request_spans {
        verbs.entry(span.name.as_str()).or_default().push(span);
    }
    for (verb, count) in [("ping", 2), ("stats", 2), ("sweep", 2), ("top_k", 2), ("metrics", 2)] {
        assert_eq!(verbs.get(verb).map_or(0, Vec::len), count, "{verb} request spans");
    }
    assert_eq!(verbs.get("shutdown").map_or(0, Vec::len), 1, "shutdown request spans");

    // The requests ran one after another, so each window span lies inside
    // exactly one request span, and that is a sweep's; the other verbs
    // pull no windows.
    assert!(!windows.is_empty());
    for window in &windows {
        let owners: Vec<&str> = request_spans
            .iter()
            .filter(|span| contains(span, window))
            .map(|span| span.name.as_str())
            .collect();
        assert_eq!(owners, ["sweep"], "{window:?} lies inside exactly one sweep's request span");
    }
    for sweep in &verbs["sweep"] {
        let pulled = windows.iter().filter(|window| contains(sweep, window)).count();
        assert_eq!(pulled, space.len().div_ceil(DEFAULT_CHUNK), "{sweep:?}: one span a window");
    }
    for verb in ["ping", "stats", "metrics", "shutdown"] {
        for span in &verbs[verb] {
            assert!(!windows.iter().any(|window| contains(span, window)), "{span:?} has windows");
        }
    }

    // The always-on latency series and the spans time the same intervals.
    let snapshot = service.registry().snapshot();
    for (verb, spans) in &verbs {
        let histogram = snapshot
            .histogram(&format!("serve_request_ms_{verb}"))
            .unwrap_or_else(|| panic!("serve_request_ms_{verb} is exported"));
        assert_eq!(histogram.count(), spans.len() as u64, "{verb}: one sample per span");
        let span_ms: f64 = spans.iter().map(|span| span.duration_ns as f64 / 1e6).sum();
        assert!(
            (histogram.sum - span_ms).abs() <= 1e-9 * span_ms,
            "{verb}: samples sum to {} ms, spans to {span_ms} ms",
            histogram.sum
        );
    }
}

/// `serve_request_ms_sweep` runs from the request's decode to the flush of
/// its last window: over a backend that sleeps in every batch, the sample
/// of a socket sweep of six windows covers every window span, and the
/// request span holds one window span per window pulled.
#[test]
fn a_streamed_sweeps_latency_sample_covers_every_window() {
    // Five default-sized windows and a short sixth (a chunk of 0 streams
    // windows of `DEFAULT_CHUNK` scenarios). Most of the space is on the
    // budget axis, which keeps the tables cheap to build next to the
    // windows' injected latency.
    let space = ScenarioSpace::new()
        .with_budgets(
            (0..(5 * DEFAULT_CHUNK + 100).div_ceil(64)).map(|i| 64.0 + i as f64).collect(),
        )
        .clear_designs()
        .add_symmetric_grid((0..64).map(|i| 1.0 + i as f64));
    let plan = FaultPlan::new();
    plan.set_latency(std::time::Duration::from_millis(5));
    let service = Arc::new(SweepService::new(
        Arc::new(FaultyBackend::new(AnalyticBackend, plan)),
        &ServiceConfig { shards: 1, threads_per_shard: 1, ..ServiceConfig::default() },
    ));
    service.registry().profiler().set_enabled(true);
    let server = Server::bind(&Endpoint::Tcp("127.0.0.1:0".into()), Arc::clone(&service)).unwrap();
    let endpoint = server.endpoint().clone();
    let serving = std::thread::spawn(move || server.run().unwrap());
    let mut client = Client::connect(&endpoint).unwrap();
    let (records, _) = client.sweep(&space, None, 0).unwrap();
    assert_eq!(records.len(), space.len());
    client.shutdown().unwrap();
    serving.join().unwrap();

    let spans = service.registry().profiler().take();
    let sweeps: Vec<&Span> =
        spans.iter().filter(|span| is_request(span) && span.name == "sweep").collect();
    assert_eq!(sweeps.len(), 1, "one request span for the one sweep");
    let windows: Vec<&Span> = spans.iter().filter(|span| is_window(span)).collect();
    assert_eq!(windows.len(), space.len().div_ceil(DEFAULT_CHUNK), "one span per window");
    for window in &windows {
        assert!(contains(sweeps[0], window), "{window:?} lies outside {:?}", sweeps[0]);
    }

    let snapshot = service.registry().snapshot();
    let histogram = snapshot.histogram("serve_request_ms_sweep").expect("the sweep is timed");
    assert_eq!(histogram.count(), 1, "one sweep, one sample");
    let first_start = windows.iter().map(|span| span.start_ns).min().unwrap();
    let last_end = windows.iter().map(|span| span.start_ns + span.duration_ns).max().unwrap();
    let sample_ns = histogram.sum * 1e6;
    assert!(
        sample_ns >= (last_end - first_start) as f64,
        "the sample ({sample_ns} ns) ends before the last window does ({} ns after the first began)",
        last_end - first_start
    );
}
