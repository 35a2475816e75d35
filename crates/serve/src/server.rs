//! Socket front-end: an event-driven reactor serving the `mp-serve` protocol
//! (line-delimited JSON, sweep chunks as binary frames) over TCP or
//! Unix-domain sockets.
//!
//! ## Architecture (serve v2)
//!
//! The v1 server spent a thread per connection — fine for tens of clients,
//! a synchronisation-and-scheduling tax at thousands (exactly the serial
//! bottleneck the underlying paper is about). v2 is a reactor:
//!
//! * One **event loop**, on the thread that calls [`Server::run`], owns the
//!   listener and every connection: an epoll instance ([`Poller`]) with the
//!   non-blocking listener and every accepted socket registered (sockets
//!   edge-triggered), a per-connection incremental line parser, a pipelined
//!   request queue, and an ordered write buffer with backpressure
//!   watermarks (see the crate-private `conn` module). The loop accepts
//!   when the listener is readable, so no thread hands sockets to it.
//! * Requests never execute on the event loop. The loop hands the head of
//!   a connection's pipeline to a pool of **executor threads** (which
//!   evaluate on the service's engine) and keeps polling; every completion
//!   comes back over one channel plus an eventfd [`Waker`].
//!   Responses are written strictly in request order per connection —
//!   that ordering is what makes pipelining safe for clients.
//! * Streaming sweeps are **pull-based**: an executor computes one window
//!   of the sweep at a time ([`SweepService::next_window`]); between
//!   windows the connection holds only a range cursor. If the client stops
//!   draining, the sweep parks at the outbox high watermark and `EPOLLOUT`
//!   re-arms it — a slow client costs a parked cursor, not a pinned thread
//!   or an unbounded buffer.
//!
//! A [`Request::Shutdown`] is acknowledged, the acknowledgement is flushed,
//! and the loop returns; the executors finish the jobs they hold and are
//! joined, and [`Server::run`] returns `Ok`.
//!
//! [`SweepService::next_window`]: crate::service::SweepService::next_window
//! [`Request::Shutdown`]: crate::protocol::Request::Shutdown

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::Arc;

use crossbeam::channel::{unbounded, Receiver, Sender};
use mp_obs::hist::Histogram;
use mp_obs::metrics::Counter;
use mp_obs::profile::{thread_lane, Span};

use crate::conn::{Conn, InFlight, HIGH_WATERMARK, LOW_WATERMARK};
use crate::protocol::{
    decode_line, encode_chunk_frame, encode_line, RequestEnvelope, Response, ResponseEnvelope,
    FRAME_RECORD_BYTES, MAX_FRAME_HEADER,
};
use crate::reactor::{Poller, Waker, EPOLLET, EPOLLIN, EPOLLOUT, EPOLLRDHUP};
use crate::service::{Answer, SweepService, SweepTicket};

/// Bucket bounds for the pipeline-depth histogram: powers of two up to
/// [`MAX_PIPELINE`](crate::conn::MAX_PIPELINE).
static PIPELINE_DEPTH_BOUNDS: [f64; 8] = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0];

/// The reactor's series (README's metrics catalogue), registered into the
/// service's registry when the server binds and shared by its event loop
/// and its connections.
pub(crate) struct ReactorMetrics {
    epoll_wakeups: Arc<Counter>,
    pipeline_depth: Arc<Histogram>,
    pub(crate) read_pauses: Arc<Counter>,
    pub(crate) outbox_high_water: Arc<Counter>,
}

/// Where a server listens (or a client connects).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Endpoint {
    /// A TCP address, e.g. `127.0.0.1:7077` (port `0` picks a free port).
    Tcp(String),
    /// A Unix-domain socket path.
    Unix(PathBuf),
}

impl std::fmt::Display for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Endpoint::Tcp(addr) => write!(f, "tcp://{addr}"),
            Endpoint::Unix(path) => write!(f, "unix://{}", path.display()),
        }
    }
}

/// A connected stream of either flavour.
pub enum Stream {
    /// TCP connection.
    Tcp(TcpStream),
    /// Unix-domain connection.
    Unix(UnixStream),
}

impl Stream {
    /// Connect to `endpoint`.
    pub fn connect(endpoint: &Endpoint) -> std::io::Result<Stream> {
        match endpoint {
            Endpoint::Tcp(addr) => TcpStream::connect(addr.as_str()).map(Stream::Tcp),
            Endpoint::Unix(path) => UnixStream::connect(path).map(Stream::Unix),
        }
    }

    /// Switch the socket between blocking and non-blocking mode.
    pub fn set_nonblocking(&self, nonblocking: bool) -> std::io::Result<()> {
        match self {
            Stream::Tcp(stream) => stream.set_nonblocking(nonblocking),
            Stream::Unix(stream) => stream.set_nonblocking(nonblocking),
        }
    }
}

impl AsRawFd for Stream {
    fn as_raw_fd(&self) -> RawFd {
        match self {
            Stream::Tcp(stream) => stream.as_raw_fd(),
            Stream::Unix(stream) => stream.as_raw_fd(),
        }
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Stream::Tcp(stream) => stream.read(buf),
            Stream::Unix(stream) => stream.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Stream::Tcp(stream) => stream.write(buf),
            Stream::Unix(stream) => stream.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Stream::Tcp(stream) => stream.flush(),
            Stream::Unix(stream) => stream.flush(),
        }
    }
}

enum Listener {
    Tcp(TcpListener),
    Unix(UnixListener),
}

impl Listener {
    fn accept(&self) -> std::io::Result<Stream> {
        match self {
            Listener::Tcp(listener) => listener.accept().map(|(stream, _)| Stream::Tcp(stream)),
            Listener::Unix(listener) => listener.accept().map(|(stream, _)| Stream::Unix(stream)),
        }
    }

    fn as_raw_fd(&self) -> RawFd {
        match self {
            Listener::Tcp(listener) => listener.as_raw_fd(),
            Listener::Unix(listener) => listener.as_raw_fd(),
        }
    }
}

/// Reactor sizing.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServerConfig {
    /// Executor threads (request parsing/encoding and service calls). An
    /// executor evaluates its query on the service's engine itself — as one
    /// of the sweep's workers, beside the engine's pool — so runnable
    /// threads are bounded by `executors + engine threads`. `0` means auto:
    /// `max(2, shards)`.
    pub executors: usize,
}

/// A listening server bound to an endpoint. [`Server::run`] consumes it and
/// blocks until a shutdown request arrives.
pub struct Server {
    listener: Listener,
    endpoint: Endpoint,
    service: Arc<SweepService>,
    config: ServerConfig,
    /// Unix socket path to unlink when the server stops.
    cleanup: Option<PathBuf>,
    metrics: Arc<ReactorMetrics>,
}

impl Server {
    /// Bind to `endpoint` with default reactor sizing. For TCP port `0` the
    /// resolved endpoint (with the kernel-assigned port) is what
    /// [`Server::endpoint`] reports. A pre-existing Unix socket file is an
    /// error — two servers must not race for one path; remove stale files
    /// explicitly.
    pub fn bind(endpoint: &Endpoint, service: Arc<SweepService>) -> std::io::Result<Server> {
        Server::bind_with(endpoint, service, ServerConfig::default())
    }

    /// [`Server::bind`] with explicit reactor sizing.
    pub fn bind_with(
        endpoint: &Endpoint,
        service: Arc<SweepService>,
        config: ServerConfig,
    ) -> std::io::Result<Server> {
        let (listener, endpoint, cleanup) = match endpoint {
            Endpoint::Tcp(addr) => {
                let listener = TcpListener::bind(addr.as_str())?;
                let actual = Endpoint::Tcp(listener.local_addr()?.to_string());
                listener.set_nonblocking(true)?;
                (Listener::Tcp(listener), actual, None)
            }
            Endpoint::Unix(path) => {
                let listener = match UnixListener::bind(path) {
                    Ok(listener) => listener,
                    Err(e) if e.kind() == std::io::ErrorKind::AddrInUse => {
                        // A crashed (SIGKILLed) server leaves its socket file
                        // behind. If nothing answers on it, the file is
                        // stale — reclaim the endpoint instead of forcing
                        // the operator to rm it before every restart.
                        if UnixStream::connect(path).is_ok() {
                            return Err(e);
                        }
                        std::fs::remove_file(path)?;
                        UnixListener::bind(path)?
                    }
                    Err(e) => return Err(e),
                };
                listener.set_nonblocking(true)?;
                (Listener::Unix(listener), Endpoint::Unix(path.clone()), Some(path.clone()))
            }
        };
        let registry = service.registry();
        let metrics = Arc::new(ReactorMetrics {
            epoll_wakeups: registry.counter("serve_epoll_wakeups"),
            pipeline_depth: registry.histogram("serve_pipeline_depth", &PIPELINE_DEPTH_BOUNDS),
            read_pauses: registry.counter("serve_read_pauses"),
            outbox_high_water: registry.counter("serve_outbox_high_water"),
        });
        Ok(Server { listener, endpoint, service, config, cleanup, metrics })
    }

    /// The bound endpoint (with the real port for TCP port-0 binds).
    pub fn endpoint(&self) -> &Endpoint {
        &self.endpoint
    }

    /// Accept and serve connections until a shutdown request arrives: spawn
    /// the executors, then run the event loop on the calling thread.
    /// Returns once the executors have been joined. A Unix socket file is
    /// unlinked on exit — graceful or not — so a failed loop never leaves
    /// the endpoint permanently unbindable.
    pub fn run(self) -> std::io::Result<()> {
        let result = self.serve();
        if let Some(path) = &self.cleanup {
            let _ = std::fs::remove_file(path);
        }
        result
    }

    fn serve(&self) -> std::io::Result<()> {
        let executors = match self.config.executors {
            0 => self.service.shards().max(2),
            n => n,
        };
        let poller = Poller::new()?;
        let waker = Arc::new(Waker::new()?);
        poller.add(waker.raw_fd(), WAKER_TOKEN, EPOLLIN)?;
        // Level-triggered: a connection still queued after a failed
        // `accept` is reported again on the next wait.
        poller.add(self.listener.as_raw_fd(), LISTENER_TOKEN, EPOLLIN)?;

        let (exec_tx, exec_rx) = unbounded::<ExecJob>();
        let (done_tx, done_rx) = unbounded::<JobDone>();
        let exec_threads: Vec<_> = (0..executors)
            .map(|index| {
                let (jobs, done, waker) = (exec_rx.clone(), done_tx.clone(), Arc::clone(&waker));
                let service = Arc::clone(&self.service);
                std::thread::Builder::new()
                    .name(format!("mp-serve-exec-{index}"))
                    .spawn(move || run_executor(&service, &jobs, &done, &waker))
                    .expect("failed to spawn executor")
            })
            .collect();

        let event_loop = EventLoop {
            poller,
            waker,
            done: done_rx,
            exec: exec_tx,
            conns: HashMap::new(),
            next_token: FIRST_CONN_TOKEN,
            accept_errors: 0,
            stop: false,
            service: Arc::clone(&self.service),
            metrics: Arc::clone(&self.metrics),
            verb_hists: HashMap::new(),
        };
        // The loop consumes itself: on return its connections close and
        // its job sender drops, so the executors run out of jobs and exit.
        let result = event_loop.run(&self.listener);
        for thread in exec_threads {
            let _ = thread.join();
        }
        result
    }
}

/// Token reserved for the loop's waker eventfd.
const WAKER_TOKEN: u64 = 0;
/// Token reserved for the listener.
const LISTENER_TOKEN: u64 = 1;
/// First token handed to a connection.
const FIRST_CONN_TOKEN: u64 = 2;

/// One unit of work for the executor pool.
struct ExecJob {
    token: u64,
    seq: u64,
    kind: JobKind,
    /// When the request's line was decoded. A streamed sweep's
    /// continuation jobs carry it on, to the flush of the sweep's last
    /// window.
    decode_ns: u64,
}

enum JobKind {
    /// One received line: parse, execute, encode. `Err` carries a
    /// receive-side error (oversized / non-UTF-8 line) to report on id 0.
    Line(Result<String, String>),
    /// Pull the next window of a parked streaming sweep.
    Window {
        /// Correlation id of the sweep request.
        id: u64,
        /// The resumable sweep state.
        ticket: Box<SweepTicket>,
    },
}

/// An executor's completion: encoded response bytes plus what (if anything)
/// remains of the request.
struct JobDone {
    token: u64,
    seq: u64,
    /// Encoded response lines, ready for the outbox.
    bytes: Vec<u8>,
    /// A streaming sweep with windows still to pull (`None` = request
    /// complete).
    next: Option<(u64, Box<SweepTicket>)>,
    /// The request was a shutdown: flush, then stop the server.
    shutdown: bool,
    /// The request's verb (`"invalid"` for a line that is no request).
    verb: &'static str,
    /// When the request's line was decoded.
    decode_ns: u64,
}

/// The server's event loop: a poller, the executors' completion channel
/// and waker, and every connection.
struct EventLoop {
    poller: Poller,
    waker: Arc<Waker>,
    done: Receiver<JobDone>,
    exec: Sender<ExecJob>,
    conns: HashMap<u64, Conn>,
    next_token: u64,
    /// Failed `accept`s since the last accepted connection.
    accept_errors: usize,
    /// A shutdown has been acknowledged and flushed: leave the loop.
    stop: bool,
    service: Arc<SweepService>,
    metrics: Arc<ReactorMetrics>,
    /// Per-verb request-latency histograms (`serve_request_ms_<verb>`) in
    /// the service's registry, kept so the flush path never takes its lock.
    verb_hists: HashMap<&'static str, Arc<Histogram>>,
}

impl EventLoop {
    fn run(mut self, listener: &Listener) -> std::io::Result<()> {
        let mut events = Vec::new();
        while !self.stop {
            self.poller.wait(&mut events)?;
            self.metrics.epoll_wakeups.inc();
            // Drain the batch by value: handlers mutate the connection map.
            for event in events.drain(..) {
                match event.token {
                    WAKER_TOKEN => {
                        self.waker.drain();
                        while let Ok(done) = self.done.try_recv() {
                            self.complete(done);
                        }
                    }
                    LISTENER_TOKEN => self.accept(listener)?,
                    _ => self.handle_io(event),
                }
            }
        }
        Ok(())
    }

    /// Adopt every queued connection. Transient accept errors (a client
    /// resetting a queued connection, momentary fd exhaustion) must not kill
    /// a resident service with clients in flight: after one the loop backs
    /// off for 10 ms and polls again. Only 64 in a row end the server with
    /// the last error; an accepted connection resets the count.
    fn accept(&mut self, listener: &Listener) -> std::io::Result<()> {
        loop {
            match listener.accept() {
                Ok(stream) => {
                    self.accept_errors = 0;
                    self.adopt(stream);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) if self.accept_errors + 1 >= 64 => return Err(e),
                Err(_) => {
                    self.accept_errors += 1;
                    std::thread::sleep(std::time::Duration::from_millis(10));
                    return Ok(());
                }
            }
        }
    }

    fn adopt(&mut self, stream: Stream) {
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        if let Stream::Tcp(tcp) = &stream {
            // Responses are written in coalesced bursts; never trade
            // latency for Nagle batching on top of that.
            let _ = tcp.set_nodelay(true);
        }
        let token = self.next_token;
        self.next_token += 1;
        let interest = EPOLLIN | EPOLLOUT | EPOLLRDHUP | EPOLLET;
        if self.poller.add(stream.as_raw_fd(), token, interest).is_err() {
            return;
        }
        let mut conn = Conn::new(stream, Arc::clone(&self.metrics));
        // Bytes may already be waiting (pipelined clients write eagerly);
        // the edge for them fired before registration.
        conn.fill();
        self.conns.insert(token, conn);
        self.pump(token);
    }

    fn complete(&mut self, done: JobDone) {
        let Some(conn) = self.conns.get_mut(&done.token) else {
            // The connection died while the executor worked; the ticket (if
            // any) is dropped with the completion.
            return;
        };
        match conn.inflight {
            InFlight::Dispatched { seq } if seq == done.seq => {}
            // A completion that does not match the in-flight job
            // (impossible by construction — one job per connection).
            _ => return,
        }
        conn.enqueue(done.bytes);
        if done.shutdown {
            conn.close_after_flush = true;
            conn.shutdown_origin = true;
        }
        let terminal = done.next.is_none();
        conn.inflight = match done.next {
            Some((id, ticket)) => InFlight::Parked { id, ticket, decode_ns: done.decode_ns },
            None => InFlight::Idle,
        };
        conn.flush_out();
        if terminal {
            self.record_request(done.verb, done.decode_ns);
        }
        self.pump(done.token);
    }

    fn handle_io(&mut self, event: crate::reactor::Event) {
        let Some(conn) = self.conns.get_mut(&event.token) else {
            return;
        };
        if event.hangup {
            conn.dead = true;
        }
        if event.readable && !conn.read_paused {
            conn.fill();
        }
        if event.writable {
            conn.flush_out();
        }
        self.pump(event.token);
    }

    /// Drive one connection forward: re-arm parked sweeps, dispatch the next
    /// pipelined request, resume paused reads, and retire the connection
    /// when it is finished or dead.
    fn pump(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };

        if !conn.dead {
            // Re-arm a parked streaming sweep once the outbox has drained —
            // this is the EPOLLOUT-driven pull that keeps slow readers from
            // buffering whole sweeps.
            if matches!(conn.inflight, InFlight::Parked { .. })
                && conn.pending_out() < LOW_WATERMARK
            {
                let InFlight::Parked { id, ticket, decode_ns } =
                    std::mem::replace(&mut conn.inflight, InFlight::Idle)
                else {
                    unreachable!("matched Parked above");
                };
                let seq = conn.take_seq();
                conn.inflight = InFlight::Dispatched { seq };
                let job = ExecJob { token, seq, kind: JobKind::Window { id, ticket }, decode_ns };
                if self.exec.send(job).is_err() {
                    conn.dead = true;
                }
            }

            // Dispatch the head of the pipeline. Only ever one job in
            // flight per connection: that is what guarantees responses in
            // request order. Production is additionally gated on the outbox
            // watermark, so a non-draining client stops consuming executor
            // time entirely.
            if matches!(conn.inflight, InFlight::Idle) && conn.pending_out() < HIGH_WATERMARK {
                if let Some((line, decode_ns)) = conn.pipeline.pop_front() {
                    self.metrics.pipeline_depth.record((conn.pipeline.len() + 1) as f64);
                    let seq = conn.take_seq();
                    conn.inflight = InFlight::Dispatched { seq };
                    let job = ExecJob { token, seq, kind: JobKind::Line(line), decode_ns };
                    if self.exec.send(job).is_err() {
                        conn.dead = true;
                    }
                }
            }

            // Resume reading once the pipeline has drained (and dispatch
            // again if that produced work for an idle connection).
            if conn.should_resume_read() {
                conn.read_paused = false;
                conn.fill();
                if matches!(conn.inflight, InFlight::Idle) && !conn.pipeline.is_empty() {
                    self.pump(token);
                    return;
                }
            }
        }

        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        // A connection that failed, flushed its shutdown acknowledgement or
        // has nothing left to do closes; closing the one that sent
        // `shutdown` stops the server.
        if conn.dead || (conn.close_after_flush && conn.pending_out() == 0) || conn.drained() {
            self.stop |= conn.shutdown_origin;
            self.close(token);
        }
    }

    fn close(&mut self, token: u64) {
        if let Some(conn) = self.conns.remove(&token) {
            self.poller.remove(conn.stream.as_raw_fd());
        }
    }

    /// A request's terminal response has been flushed: record its
    /// decode-to-flush latency on the verb's histogram and, while the
    /// service's profiler is armed, a span named for the verb over the same
    /// interval on this loop's lane.
    fn record_request(&mut self, verb: &'static str, decode_ns: u64) {
        let duration_ns = mp_obs::monotonic_ns().saturating_sub(decode_ns);
        let registry = self.service.registry();
        let histogram = self
            .verb_hists
            .entry(verb)
            .or_insert_with(|| registry.histogram_ms(&format!("serve_request_ms_{verb}")));
        histogram.record(duration_ns as f64 / 1e6);
        let profiler = registry.profiler();
        if profiler.is_enabled() {
            profiler.record(Span {
                name: verb.to_string(),
                category: "request",
                lane: thread_lane(),
                start_ns: decode_ns,
                duration_ns,
            });
        }
    }
}

/// Executor thread body: pull jobs, run them against the service, post each
/// completion to the event loop.
fn run_executor(
    service: &SweepService,
    jobs: &Receiver<ExecJob>,
    done: &Sender<JobDone>,
    waker: &Waker,
) {
    while let Ok(job) = jobs.recv() {
        // A closed channel just means the server wound down while this job
        // ran.
        if done.send(execute(service, job)).is_ok() {
            waker.wake();
        }
    }
}

/// Run one job to completion-or-parking, encoding every produced response.
/// The completion carries the request's verb and decode time back to the
/// event loop, which times the request when its terminal response flushes.
fn execute(service: &SweepService, job: ExecJob) -> JobDone {
    let ExecJob { token, seq, kind, decode_ns } = job;
    let (id, verb, answer) = match kind {
        JobKind::Window { id, ticket } => (id, "sweep", Answer::Sweep(*ticket)),
        JobKind::Line(line) => match decode_request(line) {
            Ok(RequestEnvelope { id, request }) => (id, request.verb(), service.handle(&request)),
            Err(message) => (0, "invalid", Answer::Response(Response::Error { message })),
        },
    };
    let mut done =
        JobDone { token, seq, bytes: Vec::new(), next: None, shutdown: false, verb, decode_ns };
    match answer {
        Answer::Response(response) => done.push_line(id, response),
        // Pull one window of the sweep and frame its chunks, then finish the
        // request (`SweepDone`) or hand the ticket back for parking.
        Answer::Sweep(mut ticket) => {
            match service.next_window(&mut ticket) {
                Err(e) => done.push_line(id, e.into_response()),
                Ok(records) => {
                    let records = records.unwrap_or_default();
                    let last = ticket.is_done().then(|| {
                        let response = Response::SweepDone { stats: ticket.stats() };
                        encode_line(&ResponseEnvelope { id, response })
                    });
                    // The dominant message of the protocol: the records' bits
                    // go once into a buffer sized for the whole window, which
                    // then moves into the connection's outbox.
                    let frames = records.len().div_ceil(ticket.chunk());
                    done.bytes.reserve(
                        frames * MAX_FRAME_HEADER
                            + records.len() * FRAME_RECORD_BYTES
                            + last.as_ref().map_or(0, |line| line.len() + 1),
                    );
                    for slice in records.chunks(ticket.chunk()) {
                        encode_chunk_frame(&mut done.bytes, id, slice[0].index, slice);
                    }
                    match last {
                        Some(line) => {
                            done.bytes.extend_from_slice(line.as_bytes());
                            done.bytes.push(b'\n');
                        }
                        None => done.next = Some((id, Box::new(ticket))),
                    }
                }
            }
        }
    }
    done
}

/// Decode one received line into a request. Every way a line can fail to
/// be one — a receive-side error (oversized or non-UTF-8 line), malformed
/// JSON, or the reserved id 0, which would be indistinguishable from the
/// server's own parse-error replies — comes back as the message of the
/// id-0 error that answers it.
fn decode_request(line: Result<String, String>) -> Result<RequestEnvelope, String> {
    let envelope = decode_line::<RequestEnvelope>(&line?)?;
    if envelope.id == 0 {
        return Err("request id 0 is reserved for server errors; use ids >= 1".to_string());
    }
    Ok(envelope)
}

impl JobDone {
    /// Append one encoded response line (with its newline) to the output.
    /// The acknowledgement of a
    /// [`Request::Shutdown`](crate::protocol::Request::Shutdown) also marks the job as
    /// the one that stops the server once it is flushed.
    fn push_line(&mut self, id: u64, response: Response) {
        self.shutdown |= matches!(response, Response::ShuttingDown);
        self.bytes.extend_from_slice(encode_line(&ResponseEnvelope { id, response }).as_bytes());
        self.bytes.push(b'\n');
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use crate::protocol::PROTOCOL_VERSION;
    use crate::service::ServiceConfig;
    use mp_dse::backend::AnalyticBackend;
    use std::time::Duration;

    /// Long enough that a loaded host never trips it; a server that does
    /// not stop never returns at all.
    const DEADLINE: Duration = Duration::from_secs(30);

    /// Bind a server of one engine thread and run it on a thread of its
    /// own; the receiver yields what [`Server::run`] returned.
    fn serve(endpoint: Endpoint) -> (Endpoint, std::sync::mpsc::Receiver<std::io::Result<()>>) {
        let config = ServiceConfig { shards: 1, threads_per_shard: 1, ..ServiceConfig::default() };
        let service = Arc::new(SweepService::new(Arc::new(AnalyticBackend), &config));
        let server = Server::bind_with(&endpoint, service, ServerConfig { executors: 2 }).unwrap();
        let endpoint = server.endpoint().clone();
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || tx.send(server.run()));
        (endpoint, rx)
    }

    fn socket(name: &str) -> PathBuf {
        let path =
            std::env::temp_dir().join(format!("mp-serve-{name}-{}.sock", std::process::id()));
        let _ = std::fs::remove_file(&path);
        path
    }

    #[test]
    fn the_loop_accepts_answers_and_stops_on_tcp_and_unix_sockets() {
        let tcp = Endpoint::Tcp("127.0.0.1:0".to_string());
        for (endpoint, returned) in [serve(tcp), serve(Endpoint::Unix(socket("accept")))] {
            // The second connection is accepted while the first is open.
            let mut first = Client::connect(&endpoint).unwrap();
            let mut second = Client::connect(&endpoint).unwrap();
            assert_eq!(first.ping().unwrap(), PROTOCOL_VERSION);
            assert_eq!(second.ping().unwrap(), PROTOCOL_VERSION);
            second.shutdown().unwrap();
            returned.recv_timeout(DEADLINE).expect("run returned").unwrap();
        }
    }

    #[test]
    fn shutdown_stops_a_server_whose_socket_file_is_gone() {
        let path = socket("unlinked");
        let (endpoint, returned) = serve(Endpoint::Unix(path.clone()));
        let mut client = Client::connect(&endpoint).unwrap();
        client.ping().unwrap();
        std::fs::remove_file(&path).unwrap();
        client.shutdown().unwrap();
        returned.recv_timeout(DEADLINE).expect("run returned").unwrap();
    }
}
