//! Concurrency soak of the reactor server: many pipelined clients of mixed
//! queries against servers with 2- and 8-thread engines, with injected slow-reader and
//! mid-request-disconnect clients, under a hard wall-clock deadline (a
//! wedged reactor fails fast instead of hanging CI). Results must stay
//! bit-identical to a direct `Engine::sweep`, the server must stay healthy
//! after every fault, and — measured with the counting allocator installed
//! as this binary's global allocator — serving a sweep to a slow reader
//! must not buffer the answer: peak live memory stays bounded by the
//! write-side watermarks, far below the full response size.

use std::io::{Read, Write};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use merging_phases::dse::prelude::*;
use merging_phases::model::params::AppParams;
use mp_bench::alloc_track::{self, CountingAllocator};
use mp_serve::prelude::*;

/// Count every allocation in this test binary, including the in-process
/// server's, so the soak can assert *live-memory* bounds, not just success.
#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// The tests measure global allocator state; run their bodies one at a time.
static SERIAL: Mutex<()> = Mutex::new(());

/// Run `body` under a hard deadline: a deadlock (stuck connection, wedged
/// loop) fails the test in `seconds` instead of hanging the whole suite.
fn with_deadline<F>(seconds: u64, body: F)
where
    F: FnOnce() + Send + 'static,
{
    let (tx, rx) = std::sync::mpsc::channel();
    let worker = std::thread::spawn(move || {
        body();
        let _ = tx.send(());
    });
    rx.recv_timeout(Duration::from_secs(seconds))
        .expect("soak scenario exceeded its deadline: stuck connection or wedged reactor");
    worker.join().expect("soak scenario panicked");
}

fn soak_space() -> ScenarioSpace {
    ScenarioSpace::new()
        .with_apps(AppParams::table2_all())
        .with_budgets(vec![64.0, 256.0])
        .clear_designs()
        .add_symmetric_grid((0..40).map(|i| 1.0 + i as f64 * 3.0))
        .add_asymmetric_grid([1.0, 4.0], [4.0, 16.0, 64.0])
        .with_growths(vec![
            merging_phases::model::growth::GrowthFunction::Linear,
            merging_phases::model::growth::GrowthFunction::Logarithmic,
        ])
}

fn assert_identical(got: &[EvalRecord], want: &[EvalRecord], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: record count");
    for (a, b) in got.iter().zip(want.iter()) {
        assert_eq!(a.index, b.index, "{what}: order");
        assert_eq!(a.speedup.to_bits(), b.speedup.to_bits(), "{what}: speedup @{}", a.index);
        assert_eq!(a.cores.to_bits(), b.cores.to_bits(), "{what}: cores @{}", a.index);
        assert_eq!(a.area.to_bits(), b.area.to_bits(), "{what}: area @{}", a.index);
    }
}

/// One pipelined worker: three waves of mixed queries, each wave written
/// back-to-back before any response is read; every answer verified bitwise.
fn pipelined_worker(endpoint: &Endpoint, space: &ScenarioSpace, truth: &SweepResult, id: usize) {
    let mut client = Client::connect(endpoint).unwrap();
    let n = space.len();
    let spec = || SpaceSpec::Explicit(space.clone());
    for wave in 0..3 {
        let window = ((id * 131 + wave * 17) % n)..n.min((id * 131 + wave * 17) % n + n / 3 + 1);
        let requests = vec![
            Request::Sweep { space: spec(), start: 0, end: n, chunk: 96 },
            Request::Ping,
            Request::Sweep { space: spec(), start: window.start, end: window.end, chunk: 0 },
            Request::TopK { space: spec(), k: 7 },
            Request::Pareto { space: spec(), cost: CostAxis::Cores },
            Request::Stats,
        ];
        let responses = client.call_pipelined(requests).unwrap();
        assert_eq!(responses.len(), 6);
        let [full, pong, ranged, top, pareto, stats] =
            <[Vec<Response>; 6]>::try_from(responses).expect("six answers");
        let (records, sweep_stats) = assemble_sweep(full, &(0..n)).unwrap();
        assert_identical(&records, &truth.records, &format!("worker {id} wave {wave} full"));
        assert_eq!(sweep_stats.scenarios, n);
        assert!(matches!(pong.as_slice(), [Response::Pong { .. }]));
        let (ranged, _) = assemble_sweep(ranged, &window).unwrap();
        assert_identical(
            &ranged,
            &truth.records[window],
            &format!("worker {id} wave {wave} range"),
        );
        match top.as_slice() {
            [Response::Records { records }] => assert_identical(
                &from_wire(records),
                &top_k(&truth.records, 7),
                &format!("worker {id} top"),
            ),
            other => panic!("worker {id}: unexpected top-k answer: {other:?}"),
        }
        match pareto.as_slice() {
            [Response::Records { records }] => assert_identical(
                &from_wire(records),
                &pareto_frontier(&truth.records, CostAxis::Cores),
                &format!("worker {id} pareto"),
            ),
            other => panic!("worker {id}: unexpected pareto answer: {other:?}"),
        }
        assert!(matches!(stats.as_slice(), [Response::Stats(_)]));
    }
}

/// A client that asks for a full sweep and vanishes mid-answer — or sends
/// half a request line and vanishes. The server must shrug both off.
fn disconnect_worker(endpoint: &Endpoint, space: &ScenarioSpace, half_line: bool) {
    let mut stream = Stream::connect(endpoint).unwrap();
    let line = encode_line(&RequestEnvelope {
        id: 1,
        request: Request::Sweep {
            space: SpaceSpec::Explicit(space.clone()),
            start: 0,
            end: space.len(),
            chunk: 32,
        },
    });
    let wire = format!("{line}\n").into_bytes();
    let cut = if half_line { wire.len() / 2 } else { wire.len() };
    stream.write_all(&wire[..cut]).unwrap();
    stream.flush().unwrap();
    if !half_line {
        // Take a bite of the answer so the server is mid-stream when the
        // connection dies.
        let mut buf = [0u8; 1024];
        let _ = stream.read(&mut buf);
    }
    drop(stream);
}

/// A reader that drains its full-sweep answer in small, slow sips; verifies
/// chunk contiguity and the final count without retaining the records.
fn slow_reader(endpoint: &Endpoint, space: &ScenarioSpace, chunk: usize) -> SweepStats {
    let mut stream = Stream::connect(endpoint).unwrap();
    let line = encode_line(&RequestEnvelope {
        id: 1,
        request: Request::Sweep {
            space: SpaceSpec::Explicit(space.clone()),
            start: 0,
            end: space.len(),
            chunk,
        },
    });
    stream.write_all(format!("{line}\n").as_bytes()).unwrap();
    stream.flush().unwrap();

    let mut decoder = ResponseDecoder::new();
    let mut expected_next = 0usize;
    let mut buf = [0u8; 32 * 1024];
    loop {
        let n = stream.read(&mut buf).unwrap();
        assert!(n > 0, "server closed before the sweep finished");
        decoder.push(&buf[..n]);
        for envelope in decoder.by_ref() {
            match envelope.unwrap().response {
                Response::SweepChunk { start, records } => {
                    assert_eq!(start, expected_next, "chunks arrive contiguously");
                    expected_next += records.len();
                }
                Response::SweepDone { stats } => {
                    assert_eq!(expected_next, space.len(), "every record arrived");
                    return stats;
                }
                other => panic!("unexpected response: {other:?}"),
            }
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[test]
fn pipelined_soak_with_faulty_clients_stays_bit_identical_and_unstuck() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    with_deadline(180, || {
        let space = soak_space();
        let truth =
            Arc::new(Engine::new(2).sweep(&space, &AnalyticBackend, &SweepConfig::default()));
        for shards in [1usize, 4] {
            let service = Arc::new(SweepService::new(
                Arc::new(AnalyticBackend),
                &ServiceConfig { shards, threads_per_shard: 2, ..ServiceConfig::default() },
            ));
            let server = Server::bind_with(
                &Endpoint::Tcp("127.0.0.1:0".into()),
                service,
                ServerConfig { executors: 3 },
            )
            .unwrap();
            let endpoint = server.endpoint().clone();
            let serving = std::thread::spawn(move || server.run().unwrap());

            std::thread::scope(|scope| {
                for id in 0..8 {
                    let endpoint = endpoint.clone();
                    let space = &space;
                    let truth = Arc::clone(&truth);
                    scope.spawn(move || pipelined_worker(&endpoint, space, &truth, id));
                }
                for half_line in [false, true, false, true] {
                    let endpoint = endpoint.clone();
                    let space = &space;
                    scope.spawn(move || disconnect_worker(&endpoint, space, half_line));
                }
                {
                    let endpoint = endpoint.clone();
                    let space = &space;
                    scope.spawn(move || {
                        let stats = slow_reader(&endpoint, space, 64);
                        assert_eq!(stats.scenarios, space.len());
                    });
                }
            });

            // After every fault the server still answers, coherently.
            let mut control = Client::connect(&endpoint).unwrap();
            assert_eq!(control.ping().unwrap(), PROTOCOL_VERSION);
            let (records, _) = control.sweep(&space, None, 0).unwrap();
            assert_identical(&records, &truth.records, &format!("{shards}-shard post-fault"));
            let stats = control.stats().unwrap();
            assert_eq!(stats.threads, shards * 2);
            assert!(stats.queries > 0);
            control.shutdown().unwrap();
            serving.join().unwrap();
        }
    });
}

#[test]
fn slow_reader_memory_stays_bounded_by_the_watermarks() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    with_deadline(300, || {
        // A space whose full wire answer dwarfs every buffer bound, so
        // unbounded buffering would be unmistakable in the live-byte gauge.
        // The scenario count is scaled through the budget/growth axes (not
        // the design axis) to keep the *request* line — whose transient
        // parse tree is also live memory — small next to the response.
        use merging_phases::model::growth::GrowthFunction;
        let space = ScenarioSpace::new()
            .with_apps(AppParams::table2_all())
            .with_budgets((1..=25).map(|i| 64.0 * i as f64).collect())
            .with_growths(vec![
                GrowthFunction::Constant,
                GrowthFunction::Linear,
                GrowthFunction::Logarithmic,
                GrowthFunction::Superlinear(1.4),
            ])
            .clear_designs()
            .add_symmetric_grid((0..1200).map(|i| 1.0 + i as f64 * 0.4))
            .add_asymmetric_grid([1.0, 2.0, 4.0], (0..200).map(|i| 2.0 + i as f64 * 2.0));
        let n = space.len();
        let full_wire_estimate = n * FRAME_RECORD_BYTES; // headers are ~0.4 % on top
        assert!(n > 500_000, "space must be large: {n}");

        let service = Arc::new(SweepService::new(
            Arc::new(AnalyticBackend),
            &ServiceConfig { shards: 2, threads_per_shard: 1, ..ServiceConfig::default() },
        ));
        // The allocator gauges, registered as `repro serve` registers them.
        alloc_track::register_metrics(service.registry());
        let server = Server::bind_with(
            &Endpoint::Tcp("127.0.0.1:0".into()),
            Arc::clone(&service),
            ServerConfig { executors: 2 },
        )
        .unwrap();
        let endpoint = server.endpoint().clone();
        let serving = std::thread::spawn(move || server.run().unwrap());

        // Warm everything that legitimately stays resident — the prepared
        // handle, the cache, the allocator's recycled buffers — with
        // one fast drain, so the measured phase isolates *streaming* memory.
        let warm = slow_reader_fast(&endpoint, &space);
        assert_eq!(warm, n);

        // Read the allocator through the metrics registry — the same sampled
        // gauges the serve `metrics` verb exports — so this bound holds for
        // exactly the numbers an operator would scrape.
        alloc_track::reset_peak();
        let before = service
            .registry()
            .snapshot()
            .gauge("alloc_live_bytes")
            .expect("alloc gauges registered");
        let stats = slow_reader(&endpoint, &space, 512);
        assert_eq!(stats.scenarios, n);
        let peak_growth = service
            .registry()
            .snapshot()
            .gauge("alloc_peak_bytes")
            .expect("alloc gauges registered")
            - before;

        // The server produced (and this process briefly held) ~13 MB of
        // wire data, but never more than the watermark-bounded working set
        // at once: the outbox (low watermark + one window's frames), the
        // window being framed and its records — under 1 MB observed, with
        // transient copies on both sides of the loopback included. An
        // unbounded outbox pins ~`full_wire_estimate` (loopback TCP's own
        // buffers absorb several MB of it, which is why the answer has to be
        // this large for the difference to be unmistakable).
        let bound = (full_wire_estimate / 6) as i64;
        assert!(
            peak_growth < bound,
            "peak live growth {peak_growth} bytes exceeds {bound} (full answer ~{full_wire_estimate}); \
             the server is buffering instead of parking"
        );

        let mut control = Client::connect(&endpoint).unwrap();
        control.shutdown().unwrap();
        serving.join().unwrap();
    });
}

/// Drain a full sweep as fast as possible, discarding records; returns the
/// record count.
fn slow_reader_fast(endpoint: &Endpoint, space: &ScenarioSpace) -> usize {
    let mut stream = Stream::connect(endpoint).unwrap();
    let line = encode_line(&RequestEnvelope {
        id: 1,
        request: Request::Sweep {
            space: SpaceSpec::Explicit(space.clone()),
            start: 0,
            end: space.len(),
            chunk: 512,
        },
    });
    stream.write_all(format!("{line}\n").as_bytes()).unwrap();
    stream.flush().unwrap();
    let mut decoder = ResponseDecoder::new();
    let mut seen = 0usize;
    let mut buf = [0u8; 64 * 1024];
    loop {
        let n = stream.read(&mut buf).unwrap();
        assert!(n > 0, "server closed early");
        decoder.push(&buf[..n]);
        for envelope in decoder.by_ref() {
            match envelope.unwrap().response {
                Response::SweepChunk { records, .. } => seen += records.len(),
                Response::SweepDone { .. } => return seen,
                other => panic!("unexpected response: {other:?}"),
            }
        }
    }
}
