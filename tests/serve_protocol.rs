//! Deterministic torture tests of the serve wire protocol: the incremental
//! parser fed byte-at-a-time and split at arbitrary boundaries, oversized
//! and garbage lines, interleaved pipelined exchanges over a real socket,
//! and property-based round-trips of the request/response encoding —
//! the binary chunk frames and the 16-hex-digit float bit patterns that
//! carry `NaN` markers both.

use std::io::{Read, Write};
use std::sync::Arc;

use merging_phases::dse::prelude::*;
use mp_serve::prelude::*;
use proptest::prelude::*;

fn request_lines() -> Vec<String> {
    let space = ScenarioSpace::new()
        .clear_designs()
        .add_symmetric_grid([1.0, 2.0, 4.0])
        .add_asymmetric_grid([1.0], [4.0, 16.0]);
    let requests = vec![
        Request::Ping,
        Request::Stats,
        Request::Sweep {
            space: SpaceSpec::Explicit(space.clone()),
            start: 0,
            end: space.len(),
            chunk: 2,
        },
        Request::TopK { space: SpaceSpec::Explicit(space.clone()), k: 3 },
        Request::Pareto { space: SpaceSpec::Explicit(space), cost: CostAxis::Area },
        Request::Catalogue,
    ];
    requests
        .into_iter()
        .enumerate()
        .map(|(index, request)| encode_line(&RequestEnvelope { id: index as u64 + 1, request }))
        .collect()
}

#[test]
fn byte_at_a_time_feeding_recovers_every_line_exactly() {
    let lines = request_lines();
    let wire: Vec<u8> =
        lines.iter().flat_map(|line| line.bytes().chain(std::iter::once(b'\n'))).collect();
    let mut decoder = LineDecoder::new(MAX_REQUEST_LINE);
    let mut recovered = Vec::new();
    for &byte in &wire {
        decoder.push(std::slice::from_ref(&byte));
        while let Some(line) = decoder.next_line() {
            recovered.push(line.expect("valid lines decode"));
        }
    }
    assert_eq!(recovered, lines);
    assert_eq!(decoder.buffered(), 0);
}

#[test]
fn every_split_point_of_a_two_line_stream_decodes_identically() {
    let lines = request_lines();
    let wire: Vec<u8> = format!("{}\n{}\n", lines[2], lines[0]).into_bytes();
    for split in 0..=wire.len() {
        let mut decoder = LineDecoder::new(MAX_REQUEST_LINE);
        let mut recovered = Vec::new();
        decoder.push(&wire[..split]);
        while let Some(line) = decoder.next_line() {
            recovered.push(line.unwrap());
        }
        decoder.push(&wire[split..]);
        while let Some(line) = decoder.next_line() {
            recovered.push(line.unwrap());
        }
        assert_eq!(recovered, vec![lines[2].clone(), lines[0].clone()], "split at {split}");
    }
}

#[test]
fn oversized_garbage_and_empty_lines_never_desync_the_stream() {
    let lines = request_lines();
    let mut decoder = LineDecoder::new(256);
    // Oversized line delivered in pieces, then an empty line, then garbage
    // bytes, then a real request.
    decoder.push(&[b'{'; 200]);
    assert!(decoder.next_line().is_none(), "under the cap: keep waiting");
    decoder.push(&[b'{'; 200]);
    let oversized = decoder.next_line().unwrap().unwrap_err();
    assert!(oversized.contains("256-byte"), "{oversized}");
    assert!(decoder.next_line().is_none(), "still discarding the tail");
    decoder.push(b"{{{\n\r\n");
    assert!(decoder.next_line().is_none(), "tail + blank lines are consumed");
    decoder.push(&[0xC0, 0xAF, b'\n']); // invalid UTF-8
    assert!(decoder.next_line().unwrap().is_err());
    decoder.push(format!("{}\n", lines[0]).as_bytes());
    assert_eq!(decoder.next_line().unwrap().unwrap(), lines[0]);
    assert!(decoder.buffered() <= 512, "buffer stays bounded near the cap: {}", decoder.buffered());
}

/// Drive a real server over TCP with hand-built wire bytes, split
/// mid-request across writes, and two requests pipelined back-to-back in a
/// single write. The server must answer both, in order, on their own ids.
#[test]
fn interleaved_pipelined_requests_split_across_writes_answer_in_order() {
    let service = Arc::new(SweepService::new(
        Arc::new(AnalyticBackend),
        &ServiceConfig { shards: 2, ..ServiceConfig::default() },
    ));
    let server = Server::bind(&Endpoint::Tcp("127.0.0.1:0".into()), service).unwrap();
    let endpoint = server.endpoint().clone();
    let serving = std::thread::spawn(move || server.run().unwrap());

    let space =
        ScenarioSpace::new().clear_designs().add_symmetric_grid((0..12).map(|i| 1.0 + i as f64));
    let sweep = encode_line(&RequestEnvelope {
        id: 7,
        request: Request::Sweep {
            space: SpaceSpec::Explicit(space.clone()),
            start: 0,
            end: space.len(),
            chunk: 5,
        },
    });
    let ping = encode_line(&RequestEnvelope { id: 8, request: Request::Ping });
    // Garbage between pipelined requests must produce an id-0 error in
    // stream position, without touching either request.
    let wire = format!("{sweep}\nnot json at all\n{ping}\n").into_bytes();

    let mut stream = Stream::connect(&endpoint).unwrap();
    // Write in three odd-sized pieces with pauses, splitting the sweep
    // request mid-JSON.
    let first = wire.len() / 3;
    let second = (2 * wire.len() / 3 + 1).min(wire.len());
    for piece in [&wire[..first], &wire[first..second], &wire[second..]] {
        stream.write_all(piece).unwrap();
        stream.flush().unwrap();
        std::thread::sleep(std::time::Duration::from_millis(5));
    }

    // Collect responses: sweep chunks + done on id 7, then the id-0 parse
    // error, then the pong on id 8 — strictly in that order.
    let mut decoder = ResponseDecoder::new();
    let mut envelopes: Vec<ResponseEnvelope> = Vec::new();
    let mut buf = [0u8; 4096];
    while envelopes.iter().filter(|e| e.response.is_terminal()).count() < 3 {
        let n = stream.read(&mut buf).unwrap();
        assert!(n > 0, "server closed early");
        decoder.push(&buf[..n]);
        envelopes.extend(decoder.by_ref().map(|envelope| envelope.unwrap()));
    }
    let ids: Vec<u64> = envelopes.iter().map(|e| e.id).collect();
    let chunks = space.len().div_ceil(5);
    let mut expected = vec![7u64; chunks + 1];
    expected.push(0);
    expected.push(8);
    assert_eq!(ids, expected, "responses arrive strictly in request order");
    assert!(matches!(envelopes[chunks].response, Response::SweepDone { .. }));
    assert!(matches!(envelopes[chunks + 1].response, Response::Error { .. }));
    assert!(matches!(envelopes.last().unwrap().response, Response::Pong { .. }));

    // And the sweep itself is bit-identical to the direct engine answer.
    let direct = Engine::new(1).sweep(&space, &AnalyticBackend, &SweepConfig::default());
    let responses: Vec<Response> =
        envelopes.iter().take(chunks + 1).map(|e| e.response.clone()).collect();
    let (records, _) = assemble_sweep(responses, &(0..space.len())).unwrap();
    for (a, b) in records.iter().zip(direct.records.iter()) {
        assert_eq!(a.speedup.to_bits(), b.speedup.to_bits());
    }

    let mut control = Client::connect(&endpoint).unwrap();
    control.shutdown().unwrap();
    serving.join().unwrap();
}

/// Regression for the v1 client: responses arriving in arbitrary pieces
/// (short reads) must reassemble, and a connection closed mid-line must be
/// a clean transport error, never a truncated parse.
#[test]
fn client_tolerates_short_reads_and_reports_mid_line_closes() {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let fake_server = std::thread::spawn(move || {
        let (mut socket, _) = listener.accept().unwrap();
        let mut request = Vec::new();
        let mut byte = [0u8; 1];
        // Read the ping request line.
        loop {
            socket.read_exact(&mut byte).unwrap();
            if byte[0] == b'\n' {
                break;
            }
            request.push(byte[0]);
        }
        let envelope: RequestEnvelope =
            decode_line(std::str::from_utf8(&request).unwrap()).unwrap();
        let response = encode_line(&ResponseEnvelope {
            id: envelope.id,
            response: Response::Pong { version: PROTOCOL_VERSION.to_string() },
        });
        // Dribble the response out in 3-byte pieces.
        let wire = format!("{response}\n").into_bytes();
        for piece in wire.chunks(3) {
            socket.write_all(piece).unwrap();
            socket.flush().unwrap();
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        // Second request: answer with half a line, then slam the door.
        loop {
            socket.read_exact(&mut byte).unwrap();
            if byte[0] == b'\n' {
                break;
            }
        }
        socket.write_all(&wire[..wire.len() / 2]).unwrap();
        socket.flush().unwrap();
        drop(socket);
    });

    let mut client = Client::connect(&Endpoint::Tcp(addr)).unwrap();
    assert_eq!(client.ping().unwrap(), PROTOCOL_VERSION, "short reads reassemble");
    let error = client.ping().unwrap_err();
    assert!(
        error.message.contains("mid-line"),
        "mid-line close is a clean transport error: {error}"
    );
    fake_server.join().unwrap();
}

/// A connection that dies inside a chunk frame's payload — after the header
/// line, part-way through a record — is a transport error naming the frame,
/// never a short `SweepChunk`.
#[test]
fn client_reports_a_close_inside_a_chunk_frame() {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let records: Vec<EvalRecord> = (0..10)
        .map(|index| EvalRecord { index, speedup: index as f64, cores: 4.0, area: 64.0 })
        .collect();
    let fake_server = std::thread::spawn(move || {
        let (mut socket, _) = listener.accept().unwrap();
        let mut byte = [0u8; 1];
        while byte[0] != b'\n' {
            socket.read_exact(&mut byte).unwrap();
        }
        // The client's first request is id 1.
        let mut wire = Vec::new();
        encode_chunk_frame(&mut wire, 1, 0, &records);
        let inside_the_fourth_record = wire.len() - 7 * FRAME_RECORD_BYTES + 5;
        socket.write_all(&wire[..inside_the_fourth_record]).unwrap();
        socket.flush().unwrap();
    });

    let mut client = Client::connect(&Endpoint::Tcp(addr)).unwrap();
    let space = ScenarioSpace::new().clear_designs().add_symmetric_grid([1.0]);
    let error = client.sweep(&space, Some(0..10), 0).unwrap_err();
    assert!(
        error.message.contains("mid-frame") && error.message.contains("77 of 240"),
        "mid-frame close is a clean transport error: {error}"
    );
    fake_server.join().unwrap();
}

/// `count` records from `start` whose float bits come from `bits`, cycled.
fn records_from_bits(start: usize, count: usize, bits: &[(u64, u64, u64)]) -> Vec<EvalRecord> {
    (0..count)
        .map(|offset| {
            let (a, b, c) = bits.get(offset % bits.len().max(1)).copied().unwrap_or((0, 0, 0));
            EvalRecord {
                index: start + offset,
                speedup: f64::from_bits(a),
                cores: f64::from_bits(b),
                area: f64::from_bits(c),
            }
        })
        .collect()
}

fn push_response(wire: &mut Vec<u8>, id: u64, response: Response) {
    wire.extend_from_slice(
        format!("{}\n", encode_line(&ResponseEnvelope { id, response })).as_bytes(),
    );
}

fn sweep_done(scenarios: usize) -> Response {
    Response::SweepDone {
        stats: SweepStats {
            scenarios,
            valid: scenarios,
            cache_misses: scenarios as u64,
            threads: 1,
            elapsed_seconds: 0.25,
            ..SweepStats::default()
        },
    }
}

/// An answer that breaks the sweep's contract — a frame past the range, a
/// gap, a repeated frame, a foreign id, a short `SweepDone`, a `busy` —
/// ends the collection in an error, decided from the frame header before
/// its payload is read: a header claiming 2^40 records past the range is
/// refused as an overrun with no payload behind it, not waited on.
#[test]
fn the_sweep_collector_refuses_answers_outside_the_request() {
    let range = 10..20;
    let frame = |wire: &mut Vec<u8>, id: u64, start: usize, count: usize| {
        encode_chunk_frame(wire, id, start, &records_from_bits(start, count, &[(1, 2, 3)]));
    };
    let mut cases: Vec<(&str, Vec<u8>, &str)> = Vec::new();

    let mut wire = Vec::new();
    frame(&mut wire, 1, 10, 6);
    frame(&mut wire, 1, 16, 6);
    push_response(&mut wire, 1, sweep_done(12));
    cases.push(("overrun", wire, "overruns the requested range 10..20"));

    let mut wire = Vec::new();
    frame(&mut wire, 1, 10, 4);
    wire.extend_from_slice(b"{\"id\":1,\"frame\":{\"start\":14,\"count\":1099511627776}}\n");
    cases.push(("a huge overrun, header only", wire, "overruns"));

    let mut wire = Vec::new();
    frame(&mut wire, 1, 10, 4);
    frame(&mut wire, 1, 15, 5);
    cases.push(("gap", wire, "expected start 14, got 15"));

    let mut wire = Vec::new();
    frame(&mut wire, 1, 10, 5);
    frame(&mut wire, 1, 10, 5);
    cases.push(("repeated frame", wire, "expected start 15, got 10"));

    let mut wire = Vec::new();
    frame(&mut wire, 2, 10, 10);
    cases.push(("foreign frame id", wire, "response id 2 does not match request id 1"));

    let mut wire = Vec::new();
    frame(&mut wire, 1, 10, 10);
    push_response(&mut wire, 2, sweep_done(10));
    cases.push(("foreign line id", wire, "response id 2 does not match request id 1"));

    let mut wire = Vec::new();
    frame(&mut wire, 1, 10, 6);
    push_response(&mut wire, 1, sweep_done(6));
    cases.push(("short SweepDone", wire, "sweep returned 6 of 10 records"));

    let mut wire = Vec::new();
    push_response(
        &mut wire,
        1,
        Response::Busy { message: "queue full".into(), estimated_cost_ms: 3.0 },
    );
    cases.push(("busy", wire, "server busy: queue full"));

    for (what, wire, why) in cases {
        let error =
            collect_sweep(&mut ResponseDecoder::new(), &mut &wire[..], 1, &range).expect_err(what);
        assert!(error.message.contains(why), "{what}: expected `{why}`, got: {error}");
        assert_eq!(error.is_busy(), what == "busy", "{what}: {error}");
    }
}

/// A raw TCP connection to `endpoint` whose reads give up after ten
/// seconds, so a server that never answers fails the test instead of
/// hanging it.
fn raw_connection(endpoint: &Endpoint) -> std::net::TcpStream {
    let Endpoint::Tcp(addr) = endpoint else { panic!("a TCP endpoint") };
    let socket = std::net::TcpStream::connect(addr.as_str()).unwrap();
    socket.set_read_timeout(Some(std::time::Duration::from_secs(10))).unwrap();
    socket
}

/// Read one `\n`-terminated response line off a raw connection.
fn read_response(socket: &mut std::net::TcpStream) -> ResponseEnvelope {
    let mut line = Vec::new();
    let mut byte = [0u8; 1];
    while byte[0] != b'\n' {
        socket.read_exact(&mut byte).expect("the server answers before the read deadline");
        line.push(byte[0]);
    }
    decode_line(std::str::from_utf8(&line).unwrap().trim_end()).unwrap()
}

/// A reactor with one event loop and two executors over the analytic
/// backend, answering on a thread of its own.
fn small_server() -> (Endpoint, std::thread::JoinHandle<()>) {
    let service = Arc::new(SweepService::new(Arc::new(AnalyticBackend), &ServiceConfig::default()));
    let server = Server::bind_with(
        &Endpoint::Tcp("127.0.0.1:0".into()),
        service,
        ServerConfig { executors: 2 },
    )
    .unwrap();
    let endpoint = server.endpoint().clone();
    (endpoint, std::thread::spawn(move || server.run().unwrap()))
}

/// A sweep whose `chunk` is close to `usize::MAX` is answered in chunks of
/// at most `DEFAULT_CHUNK`: in process and over the socket it returns
/// exactly records `5..n`, bit-identical to `Engine::sweep_range`, and the
/// server answers on.
#[test]
fn a_chunk_near_usize_max_streams_exactly_the_requested_range() {
    let space = ScenarioSpace::new()
        .with_budgets(vec![16.0, 256.0])
        .clear_designs()
        .add_symmetric_grid((0..24).map(|i| 1.0 + i as f64 * 3.0));
    let n = space.len();
    let range = 5..n;
    let want = Engine::new(1)
        .sweep_range(
            &SweepHandle::new(&space),
            &AnalyticBackend,
            &SweepConfig::default(),
            range.clone(),
        )
        .records;
    let same = |got: &[EvalRecord], what: &str| {
        assert_eq!(got.len(), want.len(), "{what}: record count");
        for (a, b) in got.iter().zip(&want) {
            assert_eq!(a.index, b.index, "{what}");
            assert_eq!(a.speedup.to_bits(), b.speedup.to_bits(), "{what} @{}", a.index);
            assert_eq!(a.cores.to_bits(), b.cores.to_bits(), "{what} @{}", a.index);
            assert_eq!(a.area.to_bits(), b.area.to_bits(), "{what} @{}", a.index);
        }
    };

    let service = SweepService::new(Arc::new(AnalyticBackend), &ServiceConfig::default());
    for chunk in [usize::MAX, usize::MAX - 7] {
        let mut ticket = service.begin_sweep(&space, range.clone(), chunk).unwrap();
        let mut got = Vec::new();
        while let Some(window) = service.next_window(&mut ticket).unwrap() {
            got.extend(window);
        }
        same(&got, &format!("in process, chunk {chunk}"));
    }

    let (endpoint, serving) = small_server();
    let mut socket = raw_connection(&endpoint);
    let mut decoder = ResponseDecoder::new();
    for (id, chunk) in [(1u64, usize::MAX), (2, usize::MAX - 7)] {
        let request = Request::Sweep {
            space: SpaceSpec::Explicit(space.clone()),
            start: range.start,
            end: range.end,
            chunk,
        };
        let line = encode_line(&RequestEnvelope { id, request });
        socket.write_all(format!("{line}\n").as_bytes()).unwrap();
        let (got, stats) = collect_sweep(&mut decoder, &mut socket, id, &range)
            .expect("the server answers before the read deadline");
        same(&got, &format!("over the socket, chunk {chunk}"));
        assert_eq!(stats.scenarios, n - 5);
    }
    let ping = encode_line(&RequestEnvelope { id: 3, request: Request::Ping });
    socket.write_all(format!("{ping}\n").as_bytes()).unwrap();
    assert!(matches!(read_response(&mut socket).response, Response::Pong { .. }));
    Client::connect(&endpoint).unwrap().shutdown().unwrap();
    serving.join().unwrap();
}

/// However large the `chunk` a client sends, a streamed sweep arrives in
/// frames of at most `DEFAULT_CHUNK` records — the server holds one window
/// at a time — bit-identical to `Engine::sweep`.
#[test]
fn a_huge_chunk_still_streams_in_windows_of_at_most_the_default_chunk() {
    let space = ScenarioSpace::new()
        .clear_designs()
        .add_symmetric_grid((0..20_000).map(|i| 1.0 + i as f64 * 0.01));
    let n = space.len();
    assert_eq!(n, 20_000);
    let want = Engine::new(1).sweep(&space, &AnalyticBackend, &SweepConfig::default()).records;

    let (endpoint, serving) = small_server();
    let mut socket = raw_connection(&endpoint);
    let request =
        Request::Sweep { space: SpaceSpec::Explicit(space), start: 0, end: n, chunk: usize::MAX };
    let line = encode_line(&RequestEnvelope { id: 1, request });
    socket.write_all(format!("{line}\n").as_bytes()).unwrap();
    let mut decoder = ResponseDecoder::new();
    let mut responses = Vec::new();
    let mut buf = vec![0u8; 64 * 1024];
    while !responses.last().is_some_and(Response::is_terminal) {
        let read = socket.read(&mut buf).expect("the server answers before the read deadline");
        assert!(read > 0, "the server closed before the sweep finished");
        decoder.push(&buf[..read]);
        responses.extend(decoder.by_ref().map(|envelope| envelope.unwrap().response));
    }
    let frames: Vec<usize> = responses
        .iter()
        .filter_map(|r| match r {
            Response::SweepChunk { records, .. } => Some(records.len()),
            _ => None,
        })
        .collect();
    assert_eq!(frames, [DEFAULT_CHUNK, DEFAULT_CHUNK, n - 2 * DEFAULT_CHUNK], "frame sizes");
    let (got, stats) = assemble_sweep(responses, &(0..n)).unwrap();
    assert_eq!(stats.scenarios, n);
    assert_eq!(got.len(), want.len());
    for (a, b) in got.iter().zip(&want) {
        assert_eq!(a.index, b.index);
        assert_eq!(a.speedup.to_bits(), b.speedup.to_bits(), "@{}", a.index);
        assert_eq!(a.cores.to_bits(), b.cores.to_bits(), "@{}", a.index);
        assert_eq!(a.area.to_bits(), b.area.to_bits(), "@{}", a.index);
    }
    Client::connect(&endpoint).unwrap().shutdown().unwrap();
    serving.join().unwrap();
}

/// Two `top_k` requests over a space whose budget axis is `[0]` — which a
/// decoded request can carry, though `with_budgets` would refuse it — are
/// answered with errors, on two connections at once, and the server goes on
/// answering: no executor dies building the space's tables.
#[test]
fn a_non_positive_budget_is_refused_and_the_server_keeps_answering() {
    let (endpoint, serving) = small_server();
    let mut control = Client::connect(&endpoint).unwrap();
    assert_eq!(control.ping().unwrap(), PROTOCOL_VERSION);

    let json = serde_json::to_string(&ScenarioSpace::new()).unwrap();
    let (head, rest) = json.split_once("\"budgets\":[").unwrap();
    let (_, tail) = rest.split_once(']').unwrap();
    let space: ScenarioSpace =
        serde_json::from_str(&format!("{head}\"budgets\":[0]{tail}")).unwrap();
    assert_eq!(space.budgets(), [0.0]);
    let request = encode_line(&RequestEnvelope {
        id: 1,
        request: Request::TopK { space: SpaceSpec::Explicit(space), k: 3 },
    });
    let mut sockets = [raw_connection(&endpoint), raw_connection(&endpoint)];
    for socket in &mut sockets {
        socket.write_all(format!("{request}\n").as_bytes()).unwrap();
    }
    for socket in &mut sockets {
        let answer = read_response(socket);
        assert_eq!(answer.id, 1);
        match answer.response {
            Response::Error { message } => assert!(message.contains("budget"), "{message}"),
            other => panic!("expected an error, got {other:?}"),
        }
    }

    let mut late = raw_connection(&endpoint);
    let ping = encode_line(&RequestEnvelope { id: 2, request: Request::Ping });
    late.write_all(format!("{ping}\n").as_bytes()).unwrap();
    assert!(matches!(read_response(&mut late).response, Response::Pong { .. }));
    control.shutdown().unwrap();
    serving.join().unwrap();
}

/// A number the request's field cannot hold exactly — a negative `start`,
/// a fractional `id` — is refused with an error, never coerced, and the
/// server answers on.
#[test]
fn a_negative_start_or_a_fractional_id_is_refused() {
    let (endpoint, serving) = small_server();
    let space = ScenarioSpace::new().clear_designs().add_symmetric_grid([1.0, 2.0]);
    let sweep = encode_line(&RequestEnvelope {
        id: 1,
        request: Request::Sweep { space: SpaceSpec::Explicit(space), start: 5, end: 6, chunk: 1 },
    });
    let ping = encode_line(&RequestEnvelope { id: 1, request: Request::Ping });
    let mut socket = raw_connection(&endpoint);
    let negative_start = sweep.replacen("\"start\":5", "\"start\":-5", 1);
    let fractional_id = ping.replacen("\"id\":1", "\"id\":1.5", 1);
    assert!(negative_start.contains(":-5,") && fractional_id.contains(":1.5,"));
    for line in [negative_start, fractional_id] {
        socket.write_all(format!("{line}\n").as_bytes()).unwrap();
        let answer = read_response(&mut socket);
        assert!(matches!(answer.response, Response::Error { .. }), "{line}: {answer:?}");
    }
    socket.write_all(format!("{ping}\n").as_bytes()).unwrap();
    assert!(matches!(read_response(&mut socket).response, Response::Pong { .. }));
    Client::connect(&endpoint).unwrap().shutdown().unwrap();
    serving.join().unwrap();
}

/// An id above 2^53, which an `f64` would round, comes back exactly.
#[test]
fn an_id_past_two_to_the_53_comes_back_exactly() {
    let (endpoint, serving) = small_server();
    let id = (1u64 << 53) + 1;
    let ping = encode_line(&RequestEnvelope { id, request: Request::Ping });
    assert!(ping.contains(&id.to_string()), "{ping}");
    let mut socket = raw_connection(&endpoint);
    socket.write_all(format!("{ping}\n").as_bytes()).unwrap();
    let answer = read_response(&mut socket);
    assert_eq!(answer.id, id);
    assert!(matches!(answer.response, Response::Pong { .. }), "{answer:?}");
    Client::connect(&endpoint).unwrap().shutdown().unwrap();
    serving.join().unwrap();
}

/// A client that half-closes after a last line without its `\n` gets that
/// line answered like any other — a whole request its reply, a fragment the
/// id-0 parse error, a blank tail nothing — and then end of stream: the
/// server closes the connection once the reply is flushed.
#[test]
fn an_unterminated_last_line_is_answered_and_the_connection_closes() {
    let (endpoint, serving) = small_server();
    let ping = encode_line(&RequestEnvelope { id: 1, request: Request::Ping });
    let cases = [
        (format!("{ping}\n"), Some(1)),
        (ping.clone(), Some(1)),
        ("{\"id\":1".to_string(), Some(0)),
        ("  ".to_string(), None),
    ];
    for (tail, answered_id) in cases {
        let mut socket = raw_connection(&endpoint);
        socket.write_all(tail.as_bytes()).unwrap();
        socket.shutdown(std::net::Shutdown::Write).unwrap();
        // Everything the server sends, up to the end of stream; a server
        // that keeps the connection open fails the read deadline.
        let mut received = String::new();
        socket.read_to_string(&mut received).expect("the server closes before the read deadline");
        let replies: Vec<ResponseEnvelope> =
            received.lines().map(|line| decode_line(line).unwrap()).collect();
        match answered_id {
            Some(1) => {
                assert_eq!(replies.len(), 1, "{tail:?}: {received}");
                assert_eq!(replies[0].id, 1);
                assert!(matches!(replies[0].response, Response::Pong { .. }), "{tail:?}");
            }
            Some(_) => {
                assert_eq!(replies.len(), 1, "{tail:?}: {received}");
                assert_eq!(replies[0].id, 0);
                assert!(matches!(replies[0].response, Response::Error { .. }), "{tail:?}");
            }
            None => assert!(replies.is_empty(), "{tail:?}: {received}"),
        }
    }
    Client::connect(&endpoint).unwrap().shutdown().unwrap();
    serving.join().unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Wire records round-trip bitwise for arbitrary bit patterns — every
    /// NaN payload, signed zero, subnormal and infinity included.
    #[test]
    fn wire_records_round_trip_any_bit_pattern(
        // Indices travel as JSON numbers (f64): exact for every index the
        // engine can produce (spaces are RAM-bounded), i.e. below 2^53.
        index in 0usize..(1usize << 53),
        speedup_bits in 0u64..u64::MAX,
        cores_bits in 0u64..u64::MAX,
        area_bits in 0u64..u64::MAX,
    ) {
        let record = EvalRecord {
            index,
            speedup: f64::from_bits(speedup_bits),
            cores: f64::from_bits(cores_bits),
            area: f64::from_bits(area_bits),
        };
        let line = encode_line(&WireRecord(record));
        let back: WireRecord = decode_line(&line).unwrap();
        prop_assert_eq!(back.0.index, index);
        prop_assert_eq!(back.0.speedup.to_bits(), speedup_bits);
        prop_assert_eq!(back.0.cores.to_bits(), cores_bits);
        prop_assert_eq!(back.0.area.to_bits(), area_bits);
        // Re-encoding is stable (what the golden files rely on).
        prop_assert_eq!(encode_line(&back), line);
    }

    /// Response envelopes round-trip through the wire for generated sweep
    /// chunk payloads.
    #[test]
    fn response_envelopes_round_trip(
        // Ids are JSON numbers too: exact below 2^53, and clients assign
        // small sequential ids.
        id in 1u64..(1u64 << 53),
        start in 0usize..1_000_000usize,
        bits in proptest::collection::vec((0u64..u64::MAX, 0u64..u64::MAX), 0..20),
    ) {
        let records: Vec<WireRecord> = bits
            .iter()
            .enumerate()
            .map(|(offset, (a, b))| WireRecord(EvalRecord {
                index: start + offset,
                speedup: f64::from_bits(*a),
                cores: f64::from_bits(*b),
                area: 1.0,
            }))
            .collect();
        let envelope = ResponseEnvelope {
            id,
            response: Response::SweepChunk { start, records: records.clone() },
        };
        let line = encode_line(&envelope);
        let back: ResponseEnvelope = decode_line(&line).unwrap();
        prop_assert_eq!(back.id, id);
        prop_assert_eq!(encode_line(&back), line.clone());
        // The dedicated chunk codec agrees with the generic path on every
        // generated payload: identical bytes out, identical records back.
        let plain = from_wire(&records);
        prop_assert_eq!(&encode_chunk_line(id, start, &plain), &line);
        let fast = decode_chunk_line(&line).expect("fast decoder accepts generic encoding");
        prop_assert_eq!(fast.id, id);
        match fast.response {
            Response::SweepChunk { start: got_start, records: got } => {
                prop_assert_eq!(got_start, start);
                prop_assert_eq!(encode_line(&ResponseEnvelope {
                    id,
                    response: Response::SweepChunk { start: got_start, records: got },
                }), line);
            }
            other => return Err(format!("fast decode yielded {other:?}")),
        }
    }

    /// A response stream of *frame, JSON line, frame, `SweepDone`* with
    /// arbitrary float bit patterns — every NaN payload, signed zero,
    /// subnormal and infinity, and bytes equal to `\n` — decodes to the same
    /// envelopes pushed whole or in pieces of any size, and the frames'
    /// records equal the retired text codec's for the same input.
    #[test]
    fn chunk_frames_round_trip_any_bit_pattern_however_the_stream_is_cut(
        id in 1u64..(1u64 << 53),
        start in 0usize..1_000_000usize,
        bits in proptest::collection::vec((0u64..u64::MAX, 0u64..u64::MAX, 0u64..u64::MAX), 0..40),
        cut in 0usize..40usize,
        piece in 1usize..97usize,
    ) {
        let records: Vec<EvalRecord> = bits
            .iter()
            .enumerate()
            .map(|(offset, (a, b, c))| EvalRecord {
                index: start + offset,
                speedup: f64::from_bits(*a),
                cores: f64::from_bits(*b),
                area: f64::from_bits(*c),
            })
            .collect();
        let (head, tail) = records.split_at(cut.min(records.len()));
        let mut wire = Vec::new();
        encode_chunk_frame(&mut wire, id, start, head);
        let pong = ResponseEnvelope { id, response: Response::Pong { version: "v".into() } };
        wire.extend_from_slice(format!("{}\n", encode_line(&pong)).as_bytes());
        encode_chunk_frame(&mut wire, id, start + head.len(), tail);
        let stats = SweepStats {
            scenarios: records.len(),
            valid: records.len(),
            cache_misses: records.len() as u64,
            threads: 1,
            elapsed_seconds: 0.25,
            ..SweepStats::default()
        };
        let done = ResponseEnvelope { id, response: Response::SweepDone { stats } };
        wire.extend_from_slice(format!("{}\n", encode_line(&done)).as_bytes());
        let decode = |piece: usize| -> Vec<ResponseEnvelope> {
            let mut decoder = ResponseDecoder::new();
            let mut envelopes = Vec::new();
            for bytes in wire.chunks(piece) {
                decoder.push(bytes);
                envelopes.extend(decoder.by_ref().map(|envelope| envelope.unwrap()));
            }
            assert_eq!(decoder.finish(), Ok(()), "the stream ends between messages");
            envelopes
        };
        let whole = decode(wire.len());
        prop_assert_eq!(whole.len(), 4);
        let text = |envelopes: &[ResponseEnvelope]| -> Vec<String> {
            envelopes.iter().map(encode_line).collect()
        };
        prop_assert_eq!(text(&decode(piece)), text(&whole));

        // The retired text codec is the oracle: same ids, starts and bits.
        let oracle = |start: usize, slice: &[EvalRecord]| {
            decode_chunk_line(&encode_chunk_line(id, start, slice)).expect("the oracle decodes")
        };
        prop_assert_eq!(encode_line(&whole[0]), encode_line(&oracle(start, head)));
        prop_assert_eq!(encode_line(&whole[2]), encode_line(&oracle(start + head.len(), tail)));
        prop_assert_eq!(encode_line(&whole[1]), encode_line(&pong));
        prop_assert_eq!(encode_line(&whole[3]), encode_line(&done));
    }

    /// One frame decoder, two consumers: a sweep's answer collected straight
    /// off the bytes ([`collect_sweep`]) equals [`assemble_sweep`] over the
    /// iterator's envelopes bit for bit, for any records, any chunk size and
    /// reads of 1 byte, of a random size and of the whole stream — splits
    /// inside a header and inside an 8-byte word included. The frames
    /// themselves are the retired text codec's records, byte for byte.
    #[test]
    fn collector_and_iterator_assemble_the_same_sweep_bit_for_bit(
        id in 1u64..(1u64 << 53),
        start in 0usize..1_000_000usize,
        bits in proptest::collection::vec((0u64..u64::MAX, 0u64..u64::MAX, 0u64..u64::MAX), 0..60),
        chunk in 1usize..17usize,
        piece in 1usize..4096usize,
    ) {
        let records = records_from_bits(start, bits.len(), &bits);
        let range = start..start + records.len();
        let mut wire = Vec::new();
        for (ordinal, slice) in records.chunks(chunk).enumerate() {
            let at = wire.len();
            encode_chunk_frame(&mut wire, id, start + ordinal * chunk, slice);
            prop_assert_eq!(&wire[at..], &oracle_frame(id, start + ordinal * chunk, slice)[..]);
        }
        push_response(&mut wire, id, sweep_done(records.len()));

        for piece in [1, piece.min(wire.len()), wire.len()] {
            let mut source = Pieces { wire: &wire, piece };
            let (direct, direct_stats) =
                collect_sweep(&mut ResponseDecoder::new(), &mut source, id, &range).unwrap();

            let mut decoder = ResponseDecoder::new();
            let mut responses = Vec::new();
            for bytes in wire.chunks(piece) {
                decoder.push(bytes);
                for envelope in decoder.by_ref() {
                    let envelope = envelope.unwrap();
                    prop_assert_eq!(envelope.id, id);
                    responses.push(envelope.response);
                }
            }
            let (assembled, assembled_stats) = assemble_sweep(responses, &range).unwrap();

            prop_assert_eq!(encode_line(&direct_stats), encode_line(&assembled_stats));
            prop_assert_eq!(direct.len(), records.len());
            prop_assert_eq!(assembled.len(), records.len());
            for ((a, b), want) in direct.iter().zip(&assembled).zip(&records) {
                for got in [a, b] {
                    prop_assert_eq!(got.index, want.index);
                    prop_assert_eq!(got.speedup.to_bits(), want.speedup.to_bits());
                    prop_assert_eq!(got.cores.to_bits(), want.cores.to_bits());
                    prop_assert_eq!(got.area.to_bits(), want.area.to_bits());
                }
            }
        }
    }

    /// Random byte streams never panic the decoder, and whatever it yields
    /// respects the size cap.
    #[test]
    fn arbitrary_bytes_never_break_the_decoder(
        bytes in proptest::collection::vec(0u8..=u8::MAX, 0..2048),
        cap in 16usize..512usize,
    ) {
        let mut decoder = LineDecoder::new(cap);
        for piece in bytes.chunks(7) {
            decoder.push(piece);
            while let Some(line) = decoder.next_line() {
                if let Ok(line) = line {
                    prop_assert!(line.len() <= cap);
                }
            }
        }
        prop_assert!(decoder.buffered() <= cap + 2048);
    }
}

/// A byte source handing out `wire` at most `piece` bytes a read.
struct Pieces<'a> {
    wire: &'a [u8],
    piece: usize,
}

impl Read for Pieces<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.piece.min(buf.len()).min(self.wire.len());
        buf[..n].copy_from_slice(&self.wire[..n]);
        self.wire = &self.wire[n..];
        Ok(n)
    }
}

/// A frame as spelled from the retired text codec's line for the same
/// records: the header line, then each record's three 16-hex-digit words as
/// little-endian bytes.
fn oracle_frame(id: u64, start: usize, records: &[EvalRecord]) -> Vec<u8> {
    let count = records.len();
    let mut frame =
        format!("{{\"id\":{id},\"frame\":{{\"start\":{start},\"count\":{count}}}}}\n").into_bytes();
    let line = encode_chunk_line(id, start, records);
    let words = line
        .split('"')
        .filter(|field| field.len() == 16 && field.bytes().all(|b| b.is_ascii_hexdigit()));
    for word in words {
        frame.extend_from_slice(&u64::from_str_radix(word, 16).unwrap().to_le_bytes());
    }
    assert_eq!(
        frame.len(),
        frame.iter().position(|&b| b == b'\n').unwrap() + 1 + count * FRAME_RECORD_BYTES
    );
    frame
}
