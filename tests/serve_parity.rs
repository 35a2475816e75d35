//! Differential tests of the mp-serve service: every query answer must be
//! **bit-identical** to a direct `Engine::sweep` over the same space —
//! across engine sizes, cold and warm caches (on the simulator, which
//! memoises; the analytic backend recomputes every pass), the in-process API
//! and the real socket protocol (where records additionally survive the wire:
//! binary chunk frames for sweeps, hex-bits JSON for `top_k`/`pareto`).

use std::sync::Arc;

use merging_phases::dse::prelude::*;
use merging_phases::model::explore::{figure_curves, Figure};
use merging_phases::model::params::AppParams;
use mp_serve::prelude::*;

fn space() -> ScenarioSpace {
    // Small-budget points make some designs unfit, so NaN records cross the
    // wire too.
    ScenarioSpace::new()
        .with_apps(AppParams::table2_all())
        .with_budgets(vec![64.0, 256.0])
        .clear_designs()
        .add_symmetric_grid((0..48).map(|i| 1.0 + i as f64 * 2.5))
        .add_asymmetric_grid([1.0, 4.0], [4.0, 16.0, 64.0, 128.0])
        .with_growths(vec![
            merging_phases::model::growth::GrowthFunction::Linear,
            merging_phases::model::growth::GrowthFunction::Logarithmic,
        ])
}

type Backend = Arc<dyn EvalBackend + Send + Sync>;

/// The analytic backend every parity check runs on (it never memoises)
/// and the simulator, which memoises — the cache-state checks run on it.
fn backends() -> [Backend; 2] {
    [analytic(), sim()]
}

fn analytic() -> Backend {
    Arc::new(AnalyticBackend)
}

fn sim() -> Backend {
    Arc::new(SimBackend::new())
}

fn direct_sweep(space: &ScenarioSpace, backend: &Backend) -> SweepResult {
    Engine::new(2).sweep(space, backend, &SweepConfig::default())
}

fn assert_records_identical(got: &[EvalRecord], want: &[EvalRecord], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: record count");
    for (a, b) in got.iter().zip(want.iter()) {
        assert_eq!(a.index, b.index, "{what}: index order");
        assert_eq!(a.speedup.to_bits(), b.speedup.to_bits(), "{what}: speedup @{}", a.index);
        assert_eq!(a.cores.to_bits(), b.cores.to_bits(), "{what}: cores @{}", a.index);
        assert_eq!(a.area.to_bits(), b.area.to_bits(), "{what}: area @{}", a.index);
    }
}

fn service(shards: usize, backend: &Backend) -> SweepService {
    SweepService::new(
        Arc::clone(backend),
        &ServiceConfig { shards, threads_per_shard: 2, ..ServiceConfig::default() },
    )
}

#[test]
fn in_process_queries_are_bit_identical_across_shard_counts_and_cache_states() {
    let space = space();
    let n = space.len() as u64;
    for backend in backends() {
        let direct = direct_sweep(&space, &backend);
        let direct_top = top_k(&direct.records, 12);
        let direct_pareto = pareto_frontier(&direct.records, CostAxis::Cores);
        // A repeat is answered from the cache only if the backend memoises;
        // otherwise it is recomputed.
        let warm_hits = if backend.memoise() { n } else { 0 };

        for shards in [1usize, 4] {
            let what = format!("{} {shards}-shard", backend.name());
            let service = service(shards, &backend);
            // Cold pass.
            let cold = service.sweep(&space, None).unwrap();
            assert_records_identical(&cold.records, &direct.records, &format!("{what} cold"));
            assert_eq!(cold.stats.cache_hits, 0, "{what} cold pass must not hit");
            // Warm pass: still bit-identical.
            let warm = service.sweep(&space, None).unwrap();
            assert_records_identical(&warm.records, &direct.records, &format!("{what} warm"));
            assert_eq!(warm.stats.cache_hits, warm_hits, "{what}");
            assert_eq!(warm.stats.cache_misses, n - warm_hits, "{what}");
            // Analysis queries on both cache states, through the protocol's
            // in-process dispatch.
            let spec = || SpaceSpec::Explicit(space.clone());
            let records = |request| match service.handle(&request) {
                Answer::Response(Response::Records { records }) => from_wire(&records),
                other => panic!("{what}: expected records, got {other:?}"),
            };
            let top = records(Request::TopK { space: spec(), k: 12 });
            assert_records_identical(&top, &direct_top, &format!("{what} top_k"));
            let frontier = records(Request::Pareto { space: spec(), cost: CostAxis::Cores });
            assert_records_identical(&frontier, &direct_pareto, &format!("{what} pareto"));
        }
    }
}

#[test]
fn socket_protocol_preserves_bit_identity_across_shard_counts_and_cache_states() {
    let space = space();
    for backend in backends() {
        let direct = direct_sweep(&space, &backend);
        for shards in [1usize, 4] {
            socket_parity(&space, &backend, &direct, shards);
        }
    }
}

fn socket_parity(space: &ScenarioSpace, backend: &Backend, direct: &SweepResult, shards: usize) {
    let direct_top = top_k(&direct.records, 7);
    let direct_pareto = pareto_frontier(&direct.records, CostAxis::Area);
    let server =
        Server::bind(&Endpoint::Tcp("127.0.0.1:0".into()), Arc::new(service(shards, backend)))
            .unwrap();
    let endpoint = server.endpoint().clone();
    let serving = std::thread::spawn(move || server.run().unwrap());

    let mut client = Client::connect(&endpoint).unwrap();
    assert_eq!(client.ping().unwrap(), PROTOCOL_VERSION);

    for pass in ["cold", "warm"] {
        let what = format!("{} {shards}-shard {pass} socket", backend.name());
        // Tiny chunk size so reassembly of many streamed chunks is
        // exercised, not just the single-chunk path.
        let (records, stats) = client.sweep(space, None, 100).unwrap();
        assert_records_identical(&records, &direct.records, &what);
        assert_eq!(stats.scenarios, space.len());
        let hits = if pass == "warm" && backend.memoise() { space.len() } else { 0 };
        assert_eq!(stats.cache_hits, hits as u64, "{what}");
        assert_records_identical(&client.top_k(space, 7).unwrap(), &direct_top, &what);
        assert_records_identical(
            &client.pareto(space, CostAxis::Area).unwrap(),
            &direct_pareto,
            &what,
        );
    }

    // Sub-range sweeps (the incremental/resumable path) over the wire.
    let n = space.len();
    for window in [0..n / 3, n / 3..n - 1, n - 1..n] {
        let (records, _) = client.sweep(space, Some(window.clone()), 64).unwrap();
        assert_records_identical(
            &records,
            &direct.records[window],
            &format!("{} {shards}-shard range sweep", backend.name()),
        );
    }

    client.shutdown().unwrap();
    serving.join().unwrap();
}

#[test]
fn top_k_answers_every_k_in_process_and_over_the_socket() {
    // `k` is an unchecked count on the wire. None, one, all, one more than
    // all and `usize::MAX` must each equal the oracle over a direct sweep —
    // the last three are "every valid record, sorted" — and the huge ones
    // must not size a buffer by `k`.
    let space = space();
    let backend = analytic();
    let direct = direct_sweep(&space, &backend);
    let n = space.len();
    let service = Arc::new(service(2, &backend));
    let server = Server::bind(&Endpoint::Tcp("127.0.0.1:0".into()), Arc::clone(&service)).unwrap();
    let endpoint = server.endpoint().clone();
    let serving = std::thread::spawn(move || server.run().unwrap());
    let mut client = Client::connect(&endpoint).unwrap();

    for k in [0, 1, n, n + 1, usize::MAX] {
        let want = top_k(&direct.records, k);
        let request = Request::TopK { space: SpaceSpec::Explicit(space.clone()), k };
        let in_process = match service.handle(&request) {
            Answer::Response(Response::Records { records }) => from_wire(&records),
            other => panic!("top_k({k}): expected records, got {other:?}"),
        };
        assert_records_identical(&in_process, &want, &format!("in-process top_k({k})"));
        let over_socket = client.top_k(&space, k).unwrap();
        assert_records_identical(&over_socket, &want, &format!("socket top_k({k})"));
    }
    let valid = direct.records.iter().filter(|r| r.is_valid()).count();
    assert!(valid < n, "the space has unfit designs, so `n` is more than every valid record");
    assert_eq!(top_k(&direct.records, usize::MAX).len(), valid);

    client.shutdown().unwrap();
    serving.join().unwrap();
}

#[test]
fn concurrent_socket_clients_all_observe_identical_answers() {
    // On the simulator, so repeats are answered from the one cache.
    let space = space();
    let backend = sim();
    let direct = Arc::new(direct_sweep(&space, &backend));
    let server =
        Server::bind(&Endpoint::Tcp("127.0.0.1:0".into()), Arc::new(service(4, &backend))).unwrap();
    let endpoint = server.endpoint().clone();
    let serving = std::thread::spawn(move || server.run().unwrap());

    std::thread::scope(|scope| {
        for client_index in 0..8 {
            let endpoint = endpoint.clone();
            let space = &space;
            let direct = Arc::clone(&direct);
            scope.spawn(move || {
                let mut client = Client::connect(&endpoint).unwrap();
                for _ in 0..3 {
                    let (records, _) = client.sweep(space, None, 0).unwrap();
                    assert_records_identical(
                        &records,
                        &direct.records,
                        &format!("concurrent client {client_index}"),
                    );
                }
            });
        }
    });

    let mut control = Client::connect(&endpoint).unwrap();
    let stats = control.stats().unwrap();
    assert_eq!(stats.threads, 8, "one engine of shards × threads_per_shard threads");
    assert!(stats.queries >= 24);
    assert_eq!(stats.cache.entries, space.len());
    assert!(stats.cache.hits > 0, "repeat queries must hit the cache");
    control.shutdown().unwrap();
    serving.join().unwrap();
}

#[test]
fn overlapping_sweeps_coalesce_without_breaking_bit_identity() {
    // The planner's coalescing table shares one evaluation among overlapping
    // in-flight sweeps; every subscriber must still observe records
    // bit-identical to a direct engine sweep — across engine sizes, client
    // counts and cache states.
    let space = space();
    let backend = analytic();
    let direct = Arc::new(direct_sweep(&space, &backend));

    for shards in [1usize, 4] {
        for clients in [2usize, 8] {
            let service = Arc::new(service(shards, &backend));
            for pass in ["cold", "warm"] {
                let barrier = std::sync::Barrier::new(clients);
                std::thread::scope(|scope| {
                    for client_index in 0..clients {
                        let service = Arc::clone(&service);
                        let direct = Arc::clone(&direct);
                        let space = &space;
                        let barrier = &barrier;
                        scope.spawn(move || {
                            // Release every client at once so their windows
                            // genuinely overlap in flight.
                            barrier.wait();
                            let result = service.sweep(space, None).unwrap();
                            assert_records_identical(
                                &result.records,
                                &direct.records,
                                &format!(
                                    "{shards}-shard {pass} overlap client {client_index}/{clients}"
                                ),
                            );
                            assert_eq!(result.stats.scenarios, space.len());
                        });
                    }
                });
            }
        }
    }
}

#[test]
fn overlapping_socket_clients_get_identical_answers_and_shared_stats_markers() {
    // Same property over the real protocol: concurrent duplicate sweeps,
    // answers byte-identical to an uncoalesced run, and any response served
    // from a shared evaluation carries `stats.coalesced` (never on the
    // records themselves — those are always bit-exact).
    let space = space();
    let backend = analytic();
    let direct = Arc::new(direct_sweep(&space, &backend));
    let server =
        Server::bind(&Endpoint::Tcp("127.0.0.1:0".into()), Arc::new(service(4, &backend))).unwrap();
    let endpoint = server.endpoint().clone();
    let serving = std::thread::spawn(move || server.run().unwrap());

    let barrier = std::sync::Barrier::new(6);
    std::thread::scope(|scope| {
        for client_index in 0..6 {
            let endpoint = endpoint.clone();
            let space = &space;
            let direct = Arc::clone(&direct);
            let barrier = &barrier;
            scope.spawn(move || {
                let mut client = Client::connect(&endpoint).unwrap();
                barrier.wait();
                for pass in 0..2 {
                    let (records, stats) = client.sweep(space, None, 0).unwrap();
                    assert_records_identical(
                        &records,
                        &direct.records,
                        &format!("overlap socket client {client_index} pass {pass}"),
                    );
                    assert_eq!(stats.scenarios, space.len());
                }
            });
        }
    });

    let mut control = Client::connect(&endpoint).unwrap();
    let stats = control.stats().unwrap();
    assert!(stats.queries >= 12);
    control.shutdown().unwrap();
    serving.join().unwrap();
}

#[test]
fn skewed_query_mixes_stay_bit_identical() {
    // Most clients hammer sub-ranges of one quarter of the space (the "hot
    // quarter") while a few sweep all of it, so many concurrent
    // `sweep_range` calls share the engine's pool and probe and fill the
    // same cache region at once. Every answer, skewed or not, must stay
    // bit-identical to the direct engine sweep.
    let space = space();
    let n = space.len();
    let backend = analytic();
    let direct = Arc::new(direct_sweep(&space, &backend));
    let service = Arc::new(service(4, &backend));
    let hot_span = n / 4;

    let barrier = std::sync::Barrier::new(8);
    std::thread::scope(|scope| {
        for client_index in 0..8usize {
            let service = Arc::clone(&service);
            let direct = Arc::clone(&direct);
            let space = &space;
            let barrier = &barrier;
            scope.spawn(move || {
                barrier.wait();
                for round in 0..6usize {
                    // One query in eight is a full sweep; the rest are
                    // varied windows inside the hot quarter, deliberately
                    // misaligned so they do not coalesce.
                    let range = if (client_index + round) % 8 == 0 {
                        0..n
                    } else {
                        let start = (client_index * 11 + round * 29) % (hot_span / 2).max(1);
                        start..start + hot_span / 2
                    };
                    let result = service.sweep(space, Some(range.clone())).unwrap();
                    assert_eq!(result.stats.scenarios, range.len());
                    assert_records_identical(
                        &result.records,
                        &direct.records[range],
                        &format!("skewed client {client_index} round {round}"),
                    );
                }
            });
        }
    });
}

#[test]
fn curve_queries_match_the_figure_family_bitwise() {
    let server =
        Server::bind(&Endpoint::Tcp("127.0.0.1:0".into()), Arc::new(service(1, &analytic())))
            .unwrap();
    let endpoint = server.endpoint().clone();
    let serving = std::thread::spawn(move || server.run().unwrap());
    let mut client = Client::connect(&endpoint).unwrap();
    for figure in Figure::ALL {
        let served = client.curves(figure).unwrap();
        let local = figure_curves(figure).unwrap();
        assert_eq!(served.len(), local.len(), "{figure}");
        for (a, b) in served.iter().zip(local.iter()) {
            assert_eq!(a.label, b.label);
            for (p, q) in a.points.iter().zip(b.points.iter()) {
                assert_eq!(p.speedup.to_bits(), q.speedup.to_bits(), "{figure}: {}", a.label);
            }
        }
    }
    client.shutdown().unwrap();
    serving.join().unwrap();
}

#[test]
fn unix_socket_transport_behaves_like_tcp() {
    let dir = std::env::temp_dir().join(format!("mp-serve-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("parity.sock");
    let _ = std::fs::remove_file(&path);
    // On the simulator, so the cache counters have something to count.
    let backend = sim();
    let server =
        Server::bind(&Endpoint::Unix(path.clone()), Arc::new(service(2, &backend))).unwrap();
    let endpoint = server.endpoint().clone();
    let serving = std::thread::spawn(move || server.run().unwrap());

    let space = space();
    let direct = direct_sweep(&space, &backend);
    let mut client = Client::connect(&endpoint).unwrap();
    let (records, _) = client.sweep(&space, None, 0).unwrap();
    assert_records_identical(&records, &direct.records, "unix socket");
    let stats = client.stats().unwrap();
    assert_eq!(stats.threads, 4);
    assert_eq!(stats.cache.entries, space.len());
    assert_eq!(stats.cache.inserts, space.len() as u64);
    client.shutdown().unwrap();
    serving.join().unwrap();
    assert!(!path.exists(), "server unlinks its socket on shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}
