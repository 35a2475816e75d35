//! Observability tests of the serve stack: the protocol v2 `metrics` verb
//! round-trips the registry snapshot through the real client across engine
//! sizes, the `stats` response carries the same snapshot, every request
//! counts once on its per-verb series, two services in one process keep
//! their series apart, and every socket request leaves exactly one trace
//! with monotone stage timestamps.
//!
//! Each service owns its registry, so the tests assert exact values and run
//! in parallel.

use std::collections::HashMap;
use std::sync::Arc;

use merging_phases::dse::prelude::*;
use merging_phases::model::explore::Figure;
use merging_phases::model::params::AppParams;
use mp_obs::trace::Stage;
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
fn two_services_in_one_process_keep_their_series_apart() {
    let space = space();
    let (a, b) = (service(1), service(1));
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
}

#[test]
fn every_request_traces_exactly_once_with_monotone_stages() {
    let server = Server::bind(&Endpoint::Tcp("127.0.0.1:0".into()), Arc::new(service(2))).unwrap();
    let endpoint = server.endpoint().clone();
    let trace_log = server.trace_log();
    let serving = std::thread::spawn(move || server.run().unwrap());

    // Drive a mixed load over two connections; every socket request must
    // produce exactly one trace.
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

    let traces = trace_log.snapshot();
    assert_eq!(traces.len(), requests, "one trace per socket request");

    let mut seen: HashMap<u64, usize> = HashMap::new();
    for trace in &traces {
        *seen.entry(trace.id).or_default() += 1;
    }
    for (id, occurrences) in &seen {
        assert_eq!(*occurrences, 1, "request id {id} traced more than once");
    }

    let mut verbs: HashMap<&str, usize> = HashMap::new();
    for trace in &traces {
        *verbs.entry(trace.verb).or_default() += 1;
        // Stage timestamps are stamped off one monotonic clock in pipeline
        // order; every stamped stage must be >= the stages before it.
        let mut previous = 0u64;
        for stage in Stage::ALL {
            let at = trace.stage_ns[stage.index()];
            if at != 0 {
                assert!(
                    at >= previous,
                    "request {} verb {}: stage {} at {at} precedes {previous}",
                    trace.id,
                    trace.verb,
                    stage.name(),
                );
                previous = at;
            }
        }
        // A completed request carries the full pipeline: decode and flush
        // are stamped for everything the server answered.
        assert!(trace.stage_ns[Stage::Decode.index()] > 0, "decode stamped");
        assert!(trace.stage_ns[Stage::Flush.index()] > 0, "flush stamped");
        assert!(trace.total_ms().unwrap() >= 0.0);
        // The plan stage is stamped for planned verbs (sweeps) only.
        let planned = trace.stage_ns[Stage::Plan.index()] > 0;
        match trace.verb {
            "sweep" => assert!(planned, "sweeps pass through the planner"),
            "ping" | "stats" | "metrics" | "shutdown" => {
                assert!(!planned, "{} requests are not planned", trace.verb)
            }
            _ => {}
        }
    }
    assert_eq!(verbs.get("ping"), Some(&2));
    assert_eq!(verbs.get("sweep"), Some(&2));
    assert_eq!(verbs.get("metrics"), Some(&2));
    assert_eq!(verbs.get("shutdown"), Some(&1));
}
