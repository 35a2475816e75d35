//! Backpressure behaviour of the serve stack, verified at both layers:
//!
//! * **admission control** — a service whose admitted backlog would pass its
//!   cost budget rejects new queries with a retryable busy error instead of
//!   queueing them (deterministic: the per-scenario cost is pinned and the
//!   backend blocks on a gate the test controls);
//! * **write-side watermarks** — a client that drains its socket slowly
//!   parks its streaming sweep at the outbox high watermark; `EPOLLOUT`
//!   re-arms it, the full answer still arrives bit-identical, and fast
//!   clients on the same server are never head-of-line blocked behind it.

use std::io::{Read, Write};
use std::sync::{Arc, Condvar, Mutex};

use mp_dse::backend::{AnalyticBackend, DseError, EvalBackend};
use mp_dse::engine::{Engine, EvalRecord, SweepConfig};
use mp_dse::scenario::{Scenario, ScenarioSpace};
use mp_serve::prelude::*;

/// A counter the evaluating thread bumps when it enters an evaluation.
type EnterGate = Arc<(Mutex<usize>, Condvar)>;
/// A latch the test opens to let blocked evaluations finish.
type ReleaseGate = Arc<(Mutex<bool>, Condvar)>;

/// A backend whose evaluations block until the test releases them, so the
/// test can hold the service busy deterministically (no sleeps, no racing).
struct GateBackend {
    entered: EnterGate,
    release: ReleaseGate,
}

impl GateBackend {
    fn new() -> (GateBackend, EnterGate, ReleaseGate) {
        let entered = Arc::new((Mutex::new(0usize), Condvar::new()));
        let release = Arc::new((Mutex::new(false), Condvar::new()));
        let backend = GateBackend { entered: Arc::clone(&entered), release: Arc::clone(&release) };
        (backend, entered, release)
    }
}

impl EvalBackend for GateBackend {
    fn name(&self) -> &'static str {
        "gate"
    }

    fn evaluate(&self, _scenario: &Scenario<'_>) -> Result<f64, DseError> {
        {
            let (count, signal) = &*self.entered;
            *count.lock().unwrap() += 1;
            signal.notify_all();
        }
        let (open, signal) = &*self.release;
        let mut open = open.lock().unwrap();
        while !*open {
            open = signal.wait(open).unwrap();
        }
        Ok(1.0)
    }
}

fn tiny_space() -> ScenarioSpace {
    ScenarioSpace::new().clear_designs().add_symmetric_grid([4.0])
}

#[test]
fn exhausted_admission_budget_rejects_with_busy_then_recovers() {
    let (backend, entered, release) = GateBackend::new();
    // One scenario costs 1 ms against a 1.5 ms budget: an idle service
    // admits a query, and a second one on top of it would pass the budget.
    let service = Arc::new(SweepService::new(
        Arc::new(backend),
        &ServiceConfig {
            shards: 1,
            threads_per_shard: 1,
            cost_budget_ms: 1.5,
            cost_per_scenario_ms: Some(1.0),
        },
    ));

    // Spend the budget: this sweep blocks inside the gated backend.
    let space = tiny_space();
    let occupied = {
        let service = Arc::clone(&service);
        let space = space.clone();
        std::thread::spawn(move || service.sweep(&space, None))
    };
    {
        let (count, signal) = &*entered;
        let mut count = count.lock().unwrap();
        while *count == 0 {
            count = signal.wait(count).unwrap();
        }
    }

    // The budget is spent: new queries bounce, retryably, on both the
    // service API and the wire protocol — and nothing was queued.
    let rejected = service.sweep(&space, None).unwrap_err();
    assert!(rejected.is_busy(), "expected busy, got: {rejected}");
    assert_eq!(rejected.kind, ServeErrorKind::Busy);
    let answer = service.handle(&Request::TopK { space: SpaceSpec::Explicit(space.clone()), k: 3 });
    assert!(
        matches!(answer, Answer::Response(Response::Busy { .. })),
        "protocol reports busy: {answer:?}"
    );
    let streaming = service.begin_sweep(&space, 0..space.len(), 0).unwrap_err();
    assert!(streaming.is_busy(), "streaming admission uses the same gate");

    // Drain the gate: the occupied sweep completes and admission reopens.
    {
        let (open, signal) = &*release;
        *open.lock().unwrap() = true;
        signal.notify_all();
    }
    let first = occupied.join().unwrap().unwrap();
    assert_eq!(first.stats.scenarios, space.len());
    let second = service.sweep(&space, None).unwrap();
    assert_eq!(second.stats.scenarios, space.len());
    for (a, b) in first.records.iter().zip(second.records.iter()) {
        assert_eq!(a.speedup.to_bits(), b.speedup.to_bits());
    }
}

/// Read one sweep's worth of response lines from a raw socket, slowly:
/// small reads with pauses, so the server's outbox repeatedly fills past its
/// watermark and the parked sweep must be re-armed from `EPOLLOUT`.
fn slow_read_sweep(endpoint: &Endpoint, space: &ScenarioSpace, chunk: usize) -> Vec<EvalRecord> {
    let mut stream = Stream::connect(endpoint).unwrap();
    let request = RequestEnvelope {
        id: 1,
        request: Request::Sweep {
            space: SpaceSpec::Explicit(space.clone()),
            start: 0,
            end: space.len(),
            chunk,
        },
    };
    let mut line = encode_line(&request).into_bytes();
    line.push(b'\n');
    stream.write_all(&line).unwrap();
    stream.flush().unwrap();

    let mut decoder = ResponseDecoder::new();
    let mut responses = Vec::new();
    let mut buf = [0u8; 8 * 1024];
    'read: loop {
        let n = stream.read(&mut buf).unwrap();
        assert!(n > 0, "server closed before the sweep finished");
        decoder.push(&buf[..n]);
        for envelope in decoder.by_ref() {
            let envelope = envelope.unwrap();
            assert_eq!(envelope.id, 1);
            let terminal = envelope.response.is_terminal();
            responses.push(envelope.response);
            if terminal {
                break 'read;
            }
        }
        // The slow part: let the server race far ahead of this reader.
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    let (records, stats) = assemble_sweep(responses, &(0..space.len())).unwrap();
    assert_eq!(stats.scenarios, space.len());
    records
}

#[test]
fn slow_readers_park_their_sweep_and_never_block_fast_clients() {
    // Big enough that the full wire answer (24 bytes/record, 85 k records ≈
    // 2 MiB) is 8× the 256 KiB outbox high watermark — and served over a
    // Unix socket, whose kernel buffer is a fixed ~200 KiB: loopback TCP
    // autotunes its buffers to several MiB and would swallow the whole
    // answer, so the sweep would never park at all. Here nearly every one of
    // its windows parks and is re-armed from `EPOLLOUT`.
    let space = ScenarioSpace::new()
        .with_apps(mp_model::params::AppParams::table2_all())
        .with_budgets((1..=8).map(|i| 64.0 * i as f64).collect())
        .with_growths(vec![
            mp_model::growth::GrowthFunction::Linear,
            mp_model::growth::GrowthFunction::Logarithmic,
        ])
        .clear_designs()
        .add_symmetric_grid((0..1024).map(|i| 1.0 + i as f64 * 0.25))
        .add_asymmetric_grid([1.0, 2.0, 4.0, 8.0], (0..192).map(|i| 2.0 + i as f64));
    assert!(space.len() > 80_000, "space must dwarf the watermark: {}", space.len());
    let service = Arc::new(SweepService::new(
        Arc::new(AnalyticBackend),
        &ServiceConfig { shards: 2, threads_per_shard: 1, ..ServiceConfig::default() },
    ));
    let socket =
        std::env::temp_dir().join(format!("mp-serve-backpressure-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&socket);
    let server =
        Server::bind_with(&Endpoint::Unix(socket), service, ServerConfig { executors: 2 }).unwrap();
    let endpoint = server.endpoint().clone();
    let serving = std::thread::spawn(move || server.run().unwrap());

    let truth = Engine::new(1).sweep(&space, &AnalyticBackend, &SweepConfig::default());

    // One slow reader and one fast client, concurrently on the one loop.
    let slow = {
        let endpoint = endpoint.clone();
        let space = space.clone();
        std::thread::spawn(move || slow_read_sweep(&endpoint, &space, 128))
    };
    let fast_started = std::time::Instant::now();
    let mut fast = Client::connect(&endpoint).unwrap();
    for _ in 0..3 {
        let (records, _) = fast.sweep(&space, None, 0).unwrap();
        assert_eq!(records.len(), truth.records.len());
    }
    let fast_elapsed = fast_started.elapsed();

    let slow_records = slow.join().unwrap();
    assert_eq!(slow_records.len(), truth.records.len());
    for (a, b) in slow_records.iter().zip(truth.records.iter()) {
        assert_eq!(a.index, b.index);
        assert_eq!(a.speedup.to_bits(), b.speedup.to_bits());
        assert_eq!(a.cores.to_bits(), b.cores.to_bits());
        assert_eq!(a.area.to_bits(), b.area.to_bits());
    }
    // The fast client must have finished long before the slow reader's
    // paced drain (which takes at least 2ms per 8 KiB read): head-of-line
    // isolation, not just eventual completion.
    assert!(
        fast_elapsed < std::time::Duration::from_secs(30),
        "fast client stalled behind the slow reader: {fast_elapsed:?}"
    );

    let mut control = Client::connect(&endpoint).unwrap();
    control.shutdown().unwrap();
    serving.join().unwrap();
}
