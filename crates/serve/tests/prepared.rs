//! The prepared-space query path (`prepare` → query by id): answers must be
//! bit-identical to explicit-space queries and to a direct `Engine::sweep`,
//! ids must be stable and idempotent, and evicted or malformed ids must
//! fail cleanly with a re-preparable error.

use std::sync::Arc;

use mp_dse::analysis::CostAxis;
use mp_dse::backend::AnalyticBackend;
use mp_dse::engine::{Engine, SweepConfig};
use mp_dse::scenario::ScenarioSpace;
use mp_serve::prelude::*;

fn space() -> ScenarioSpace {
    ScenarioSpace::new()
        .with_apps(mp_model::params::AppParams::table2_all())
        .with_budgets(vec![64.0, 256.0])
        .clear_designs()
        .add_symmetric_grid((0..32).map(|i| 1.0 + i as f64 * 4.0))
        .add_asymmetric_grid([1.0, 4.0], [4.0, 16.0, 64.0])
}

fn service(shards: usize) -> Arc<SweepService> {
    Arc::new(SweepService::new(
        Arc::new(AnalyticBackend),
        &ServiceConfig { shards, threads_per_shard: 2, ..ServiceConfig::default() },
    ))
}

#[test]
fn prepared_queries_are_bit_identical_to_explicit_and_direct() {
    let space = space();
    let direct = Engine::new(2).sweep(&space, &AnalyticBackend, &SweepConfig::default());
    let service = service(2);

    let spec = SpaceSpec::Explicit(space.clone());
    let (id, scenarios) = service.prepare_spec(&spec).unwrap();
    assert_eq!(scenarios, space.len());
    assert_eq!(id.len(), 16, "prepared ids are 16 hex digits: {id}");
    // Idempotent: preparing the same space again returns the same id.
    assert_eq!(service.prepare_spec(&spec).unwrap().0, id);

    let prepared = SpaceSpec::Prepared { id: id.clone() };
    let via_handle = service.resolve_handle(&prepared).unwrap();
    let result = service.sweep_handle(&via_handle, None).unwrap();
    assert_eq!(result.records.len(), direct.records.len());
    for (a, b) in result.records.iter().zip(direct.records.iter()) {
        assert_eq!(a.index, b.index);
        assert_eq!(a.speedup.to_bits(), b.speedup.to_bits());
        assert_eq!(a.cores.to_bits(), b.cores.to_bits());
        assert_eq!(a.area.to_bits(), b.area.to_bits());
    }

    // The protocol path agrees with the explicit-spec path byte for byte.
    let response = |space| match service.handle(&Request::TopK { space, k: 9 }) {
        Answer::Response(response) => encode_line(&response),
        Answer::Sweep(ticket) => panic!("top_k answered with a sweep ticket: {ticket:?}"),
    };
    assert_eq!(response(spec), response(prepared));
}

#[test]
fn prepared_ids_work_over_the_socket_and_survive_pipelining() {
    let space = space();
    let direct = Engine::new(2).sweep(&space, &AnalyticBackend, &SweepConfig::default());
    let server = Server::bind(&Endpoint::Tcp("127.0.0.1:0".into()), service(2)).unwrap();
    let endpoint = server.endpoint().clone();
    let serving = std::thread::spawn(move || server.run().unwrap());

    let mut client = Client::connect(&endpoint).unwrap();
    let (id, scenarios) = client.prepare(&space).unwrap();
    assert_eq!(scenarios, space.len());

    // One-shot prepared queries.
    let (records, stats) = client.sweep_prepared(&id, 0..scenarios, 50).unwrap();
    assert_eq!(stats.scenarios, scenarios);
    for (a, b) in records.iter().zip(direct.records.iter()) {
        assert_eq!(a.speedup.to_bits(), b.speedup.to_bits());
    }
    let top = client.top_k_prepared(&id, 5).unwrap();
    assert_eq!(top, mp_dse::analysis::top_k(&direct.records, 5));
    let frontier = client.pareto_prepared(&id, CostAxis::Area).unwrap();
    assert_eq!(frontier, mp_dse::analysis::pareto_frontier(&direct.records, CostAxis::Area));

    // Pipelined prepared queries, including a range window.
    let prepared = || SpaceSpec::Prepared { id: id.clone() };
    let window = 7..scenarios - 3;
    let responses = client
        .call_pipelined(vec![
            Request::Sweep { space: prepared(), start: window.start, end: window.end, chunk: 0 },
            Request::TopK { space: prepared(), k: 3 },
            Request::Ping,
        ])
        .unwrap();
    let (ranged, _) = assemble_sweep(responses[0].clone(), &window).unwrap();
    for (a, b) in ranged.iter().zip(&direct.records[window]) {
        assert_eq!(a.index, b.index);
        assert_eq!(a.speedup.to_bits(), b.speedup.to_bits());
    }
    assert!(matches!(responses[1].as_slice(), [Response::Records { .. }]));
    assert!(matches!(responses[2].as_slice(), [Response::Pong { .. }]));

    // Bad ids fail cleanly and keep the connection alive.
    let malformed = client.top_k_prepared("zz", 1).unwrap_err();
    assert!(malformed.message.contains("malformed"), "{malformed}");
    let unknown = client.top_k_prepared("00112233aabbccdd", 1).unwrap_err();
    assert!(unknown.message.contains("re-prepare"), "{unknown}");
    assert_eq!(client.ping().unwrap(), PROTOCOL_VERSION);

    client.shutdown().unwrap();
    serving.join().unwrap();
}

/// Ranges that do not fill their frames: one that is not a multiple of the
/// chunk (a short last frame), a single record, and an empty range (no frame
/// at all, just `SweepDone`) assemble to the direct engine answer, bit for
/// bit, over a real socket.
#[test]
fn ragged_single_and_empty_ranges_assemble_to_the_direct_answer() {
    let space = space();
    let direct = Engine::new(2).sweep(&space, &AnalyticBackend, &SweepConfig::default());
    let server = Server::bind(&Endpoint::Tcp("127.0.0.1:0".into()), service(2)).unwrap();
    let endpoint = server.endpoint().clone();
    let serving = std::thread::spawn(move || server.run().unwrap());

    let mut client = Client::connect(&endpoint).unwrap();
    let (id, n) = client.prepare(&space).unwrap();
    let ragged = 3..n - 2;
    assert_ne!(ragged.len() % 7, 0, "the last frame of the ragged range must be short");
    for (range, chunk) in [(ragged, 7), (0..n, 0), (5..6, 7), (n - 1..n, 0), (9..9, 7)] {
        let (records, stats) = client.sweep_prepared(&id, range.clone(), chunk).unwrap();
        assert_eq!(stats.scenarios, range.len());
        assert_eq!(records.len(), range.len());
        for (a, b) in records.iter().zip(&direct.records[range]) {
            assert_eq!(a.index, b.index);
            assert_eq!(a.speedup.to_bits(), b.speedup.to_bits());
            assert_eq!(a.cores.to_bits(), b.cores.to_bits());
            assert_eq!(a.area.to_bits(), b.area.to_bits());
        }
    }

    client.shutdown().unwrap();
    serving.join().unwrap();
}

#[test]
fn evicted_prepared_ids_report_expiry_not_wrong_answers() {
    let service = service(1);
    let space = space();
    let (id, _) = service.prepare_spec(&SpaceSpec::Explicit(space.clone())).unwrap();

    // Push well past the LRU cap with distinct spaces so the id is evicted.
    for designs in 1..=40usize {
        let filler = ScenarioSpace::new()
            .clear_designs()
            .add_symmetric_grid((0..designs).map(|i| 1.0 + i as f64));
        service.prepare_spec(&SpaceSpec::Explicit(filler)).unwrap();
    }
    let expired = service.resolve_handle(&SpaceSpec::Prepared { id: id.clone() }).unwrap_err();
    assert!(!expired.is_busy());
    assert!(expired.message.contains("re-prepare"), "{expired}");

    // Re-preparing restores service under the same id.
    let (again, _) = service.prepare_spec(&SpaceSpec::Explicit(space)).unwrap();
    assert_eq!(again, id, "content-addressed ids are stable across eviction");
    assert!(service.resolve_handle(&SpaceSpec::Prepared { id }).is_ok());
}
