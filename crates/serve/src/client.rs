//! A small blocking client for the serve protocol, used by the `repro load`
//! generator and the differential tests.
//!
//! The read path is incremental: responses are reassembled from whatever
//! pieces the socket yields by the protocol's [`ResponseDecoder`], so a line
//! or chunk frame split across reads — or a read containing several
//! pipelined responses — decodes identically. A connection that closes in
//! the middle of a line or a frame is a transport error, never a truncated
//! parse. Socket reads land in the decoder's buffer, and a sweep's frames
//! decode from there straight onto the answer's record vector
//! ([`collect_sweep`]): one user-space copy of each record after the read.
//!
//! [`Client::call_pipelined`] issues many requests back-to-back on one
//! connection (one write, one flush) and then collects every answer in
//! request order — the client side of the server's pipelined protocol.

use std::io::{Read, Write};
use std::ops::Range;
use std::time::Duration;

use mp_dse::analysis::CostAxis;
use mp_dse::engine::{EvalRecord, SweepStats};
use mp_dse::scenario::ScenarioSpace;
use mp_model::explore::{Curve, Figure};

use crate::protocol::{
    encode_line, CatalogueEntry, Decoded, JobSnapshot, Request, RequestEnvelope, Response,
    ResponseDecoder, ResponseEnvelope, ServiceStats,
};
use crate::server::{Endpoint, Stream};

/// Error produced by a client call: transport failure, protocol violation or
/// a server-reported error.
#[derive(Debug)]
pub struct ClientError {
    /// Human-readable reason.
    pub message: String,
    /// Whether the server rejected the request with a retryable
    /// [`Response::Busy`] (admission control) rather than failing it.
    pub busy: bool,
    /// The planner's cost estimate for the rejected query, milliseconds
    /// (`0.0` when the server did not supply one, or the error is not a
    /// busy rejection). Retry loops use it as a floor on their backoff.
    pub estimated_cost_ms: f64,
}

impl ClientError {
    /// Whether the failure is a retryable admission rejection.
    pub fn is_busy(&self) -> bool {
        self.busy
    }
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        err(format!("transport error: {e}"))
    }
}

fn err(message: impl Into<String>) -> ClientError {
    ClientError { message: message.into(), busy: false, estimated_cost_ms: 0.0 }
}

/// A bounded, jittered exponential-backoff schedule for retrying busy
/// rejections — shared by `repro load`'s query loop, the `repro job`
/// commands and the server-side job runner, so every retry path in the
/// stack backs off the same way.
///
/// The delay for attempt `n` (1-based) is `base · 2^(n-1)` capped at
/// `cap`, floored at half the server's `estimated_cost_ms` hint when one
/// was supplied (there is no point re-asking much sooner than the backlog
/// can drain), then jittered ±50% by a deterministic xorshift mix of
/// `(n, salt)` — deterministic so tests reproduce, salted so concurrent
/// retriers do not stampede in lockstep.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Maximum busy retries after the first attempt; exceeding it
    /// surfaces the busy error to the caller.
    pub retries: usize,
    /// First-retry delay.
    pub base: Duration,
    /// Backoff ceiling (also caps the `estimated_cost_ms` floor).
    pub cap: Duration,
}

impl RetryPolicy {
    /// A policy with millisecond base/cap and the default retry budget.
    pub fn backoff_ms(base_ms: u64, cap_ms: u64) -> RetryPolicy {
        RetryPolicy {
            retries: 200,
            base: Duration::from_millis(base_ms),
            cap: Duration::from_millis(cap_ms),
        }
    }

    /// The sleep before retry `attempt` (1-based), see the type docs.
    pub fn delay(&self, attempt: u32, salt: u64, estimated_cost_ms: f64) -> Duration {
        let exp = self
            .base
            .saturating_mul(1u32.checked_shl(attempt.saturating_sub(1)).unwrap_or(u32::MAX))
            .min(self.cap);
        let floor = Duration::from_secs_f64((estimated_cost_ms.max(0.0) / 1_000.0) * 0.5);
        let nominal = exp.max(floor.min(self.cap));
        // xorshift64* of (attempt, salt) → uniform jitter factor in
        // [0.5, 1.5). No RNG dependency, fully reproducible.
        let mut x = salt ^ (u64::from(attempt).wrapping_mul(0x9E37_79B9_7F4A_7C15)) | 1;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        let unit = (x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11) as f64 / (1u64 << 53) as f64;
        Duration::from_secs_f64(nominal.as_secs_f64() * (0.5 + unit))
    }
}

/// What a retried call ended as: the final (non-busy, or budget-exhausted)
/// responses plus how hard the client had to try.
#[derive(Debug)]
pub struct RetryOutcome {
    /// The final call's responses.
    pub responses: Vec<Response>,
    /// Busy rejections absorbed before the final call.
    pub busy_retries: u64,
    /// `true` when the retry budget ran out and `responses` still holds a
    /// busy rejection.
    pub exhausted: bool,
}

/// A blocking connection to a sweep service.
pub struct Client {
    stream: Stream,
    decoder: ResponseDecoder,
    next_id: u64,
}

impl Client {
    /// Connect to a server.
    pub fn connect(endpoint: &Endpoint) -> std::io::Result<Client> {
        let stream = Stream::connect(endpoint)?;
        Ok(Client { stream, decoder: ResponseDecoder::new(), next_id: 1 })
    }

    /// One complete response, reassembled across however many reads the
    /// transport needs. EOF inside a line or a chunk frame is reported as a
    /// mid-line / mid-frame close, not parsed as a (truncated) response.
    fn read_response(&mut self) -> Result<ResponseEnvelope, ClientError> {
        loop {
            match self.decoder.next() {
                Some(Ok(envelope)) => return Ok(envelope),
                Some(Err(message)) => return Err(err(format!("malformed response: {message}"))),
                None => fill(&mut self.decoder, &mut self.stream)?,
            }
        }
    }

    /// Read responses for request `id` through its terminal one.
    fn collect(&mut self, id: u64) -> Result<Vec<Response>, ClientError> {
        let mut responses = Vec::new();
        loop {
            let envelope = self.read_response()?;
            check_id(envelope.id, id).map_err(err)?;
            let terminal = envelope.response.is_terminal();
            responses.push(envelope.response);
            if terminal {
                return Ok(responses);
            }
        }
    }

    /// Send one request and collect its responses through the terminal one.
    /// Responses for other ids are a protocol violation (this method keeps
    /// one request in flight at a time).
    pub fn call(&mut self, request: Request) -> Result<Vec<Response>, ClientError> {
        let id = self.send(request)?;
        self.collect(id)
    }

    /// Write one request; returns the id its responses will carry.
    fn send(&mut self, request: Request) -> Result<u64, ClientError> {
        let id = self.next_id;
        self.next_id += 1;
        let mut line = encode_line(&RequestEnvelope { id, request }).into_bytes();
        line.push(b'\n');
        self.stream.write_all(&line)?;
        self.stream.flush()?;
        Ok(id)
    }

    /// Send a sweep request over `range` and collect its answer straight
    /// off the socket ([`collect_sweep`]).
    fn sweep_request(
        &mut self,
        space: super::protocol::SpaceSpec,
        range: Range<usize>,
        chunk: usize,
    ) -> Result<(Vec<EvalRecord>, SweepStats), ClientError> {
        let request = Request::Sweep { space, start: range.start, end: range.end, chunk };
        let id = self.send(request)?;
        collect_sweep(&mut self.decoder, &mut self.stream, id, &range)
    }

    /// Pipeline `requests` on this connection: every request line is written
    /// (one buffered write, one flush) **before** any response is read, then
    /// the answers are collected strictly in request order — the server
    /// guarantees that ordering. Returns one response list per request.
    pub fn call_pipelined(
        &mut self,
        requests: Vec<Request>,
    ) -> Result<Vec<Vec<Response>>, ClientError> {
        let first_id = self.next_id;
        let mut wire = Vec::new();
        for request in requests {
            let id = self.next_id;
            self.next_id += 1;
            wire.extend_from_slice(encode_line(&RequestEnvelope { id, request }).as_bytes());
            wire.push(b'\n');
        }
        self.stream.write_all(&wire)?;
        self.stream.flush()?;
        (first_id..self.next_id).map(|id| self.collect(id)).collect()
    }

    /// [`Client::call`], retrying busy rejections per `policy`. Any
    /// non-busy outcome (success or hard error) returns immediately; a
    /// busy streak longer than the policy's budget returns with
    /// [`RetryOutcome::exhausted`] set so the caller decides whether
    /// exhaustion is an error (the request itself is cloned per attempt —
    /// busy rejections are terminal, so each retry is a fresh exchange).
    pub fn call_with_retry(
        &mut self,
        request: &Request,
        policy: &RetryPolicy,
        salt: u64,
    ) -> Result<RetryOutcome, ClientError> {
        let mut busy_retries = 0u64;
        loop {
            let responses = self.call(request.clone())?;
            let cost = responses.iter().find_map(|r| match r {
                Response::Busy { estimated_cost_ms, .. } => Some(*estimated_cost_ms),
                _ => None,
            });
            let Some(cost) = cost else {
                return Ok(RetryOutcome { responses, busy_retries, exhausted: false });
            };
            if busy_retries as usize >= policy.retries {
                return Ok(RetryOutcome { responses, busy_retries, exhausted: true });
            }
            busy_retries += 1;
            std::thread::sleep(policy.delay(busy_retries as u32, salt, cost));
        }
    }

    fn single(&mut self, request: Request) -> Result<Response, ClientError> {
        let mut responses = self.call(request)?;
        if responses.len() != 1 {
            return Err(err(format!("expected one response, got {}", responses.len())));
        }
        check_single(responses.pop().expect("length checked"))
    }

    /// Liveness probe; returns the server's protocol version.
    pub fn ping(&mut self) -> Result<String, ClientError> {
        match self.single(Request::Ping)? {
            Response::Pong { version } => Ok(version),
            other => Err(unexpected("Pong", &other)),
        }
    }

    /// Fetch service statistics.
    pub fn stats(&mut self) -> Result<ServiceStats, ClientError> {
        match self.single(Request::Stats)? {
            Response::Stats(stats) => Ok(stats),
            other => Err(unexpected("Stats", &other)),
        }
    }

    /// Fetch the server's metrics-registry snapshot: `(json, prometheus)`,
    /// the same snapshot rendered as one JSON object and as Prometheus
    /// exposition text.
    pub fn metrics(&mut self) -> Result<(String, String), ClientError> {
        match self.single(Request::Metrics)? {
            Response::Metrics { json, prometheus } => Ok((json, prometheus)),
            other => Err(unexpected("Metrics", &other)),
        }
    }

    /// List the service's calibration catalogue.
    pub fn catalogue(&mut self) -> Result<Vec<CatalogueEntry>, ClientError> {
        match self.single(Request::Catalogue)? {
            Response::Catalogue { entries } => Ok(entries),
            other => Err(unexpected("Catalogue", &other)),
        }
    }

    /// Register `space` server-side; returns the prepared id (for
    /// [`SpaceSpec::Prepared`] queries via the `*_prepared` methods) and the
    /// space's scenario count.
    ///
    /// [`SpaceSpec::Prepared`]: crate::protocol::SpaceSpec::Prepared
    pub fn prepare(&mut self, space: &ScenarioSpace) -> Result<(String, usize), ClientError> {
        let request =
            Request::Prepare { space: super::protocol::SpaceSpec::Explicit(space.clone()) };
        match self.single(request)? {
            Response::Prepared { id, scenarios } => Ok((id, scenarios)),
            other => Err(unexpected("Prepared", &other)),
        }
    }

    /// [`Client::sweep`] against a prepared space id — the request is a few
    /// dozen bytes instead of the space's JSON.
    pub fn sweep_prepared(
        &mut self,
        id: &str,
        range: Range<usize>,
        chunk: usize,
    ) -> Result<(Vec<EvalRecord>, SweepStats), ClientError> {
        self.sweep_request(
            super::protocol::SpaceSpec::Prepared { id: id.to_string() },
            range,
            chunk,
        )
    }

    /// [`Client::top_k`] against a prepared space id.
    pub fn top_k_prepared(&mut self, id: &str, k: usize) -> Result<Vec<EvalRecord>, ClientError> {
        let request =
            Request::TopK { space: super::protocol::SpaceSpec::Prepared { id: id.to_string() }, k };
        match self.single(request)? {
            Response::Records { records } => Ok(super::protocol::from_wire(&records)),
            other => Err(unexpected("Records", &other)),
        }
    }

    /// [`Client::pareto`] against a prepared space id.
    pub fn pareto_prepared(
        &mut self,
        id: &str,
        cost: CostAxis,
    ) -> Result<Vec<EvalRecord>, ClientError> {
        let request = Request::Pareto {
            space: super::protocol::SpaceSpec::Prepared { id: id.to_string() },
            cost,
        };
        match self.single(request)? {
            Response::Records { records } => Ok(super::protocol::from_wire(&records)),
            other => Err(unexpected("Records", &other)),
        }
    }

    /// Sweep `range` of `space` (`None` = the whole space), reassembling the
    /// streamed chunks. Records come back in index order with global indices.
    pub fn sweep(
        &mut self,
        space: &ScenarioSpace,
        range: Option<Range<usize>>,
        chunk: usize,
    ) -> Result<(Vec<EvalRecord>, SweepStats), ClientError> {
        let range = range.unwrap_or(0..space.len());
        self.sweep_request(super::protocol::SpaceSpec::Explicit(space.clone()), range, chunk)
    }

    /// The `k` best records of a full sweep of `space`.
    pub fn top_k(
        &mut self,
        space: &ScenarioSpace,
        k: usize,
    ) -> Result<Vec<EvalRecord>, ClientError> {
        let request =
            Request::TopK { space: super::protocol::SpaceSpec::Explicit(space.clone()), k };
        match self.single(request)? {
            Response::Records { records } => Ok(super::protocol::from_wire(&records)),
            other => Err(unexpected("Records", &other)),
        }
    }

    /// The Pareto frontier of a full sweep of `space`.
    pub fn pareto(
        &mut self,
        space: &ScenarioSpace,
        cost: CostAxis,
    ) -> Result<Vec<EvalRecord>, ClientError> {
        let request =
            Request::Pareto { space: super::protocol::SpaceSpec::Explicit(space.clone()), cost };
        match self.single(request)? {
            Response::Records { records } => Ok(super::protocol::from_wire(&records)),
            other => Err(unexpected("Records", &other)),
        }
    }

    /// The curve family of one paper figure.
    pub fn curves(&mut self, figure: Figure) -> Result<Vec<Curve>, ClientError> {
        match self.single(Request::Curve { figure })? {
            Response::Curves { curves } => Ok(curves),
            other => Err(unexpected("Curves", &other)),
        }
    }

    /// Submit a durable sweep job over `range` of `space` (`None` = the
    /// whole space); returns its initial snapshot. `chunk` sizes the
    /// runner windows, `checkpoint_every` the checkpoint cadence in
    /// completed windows (`0` = the server's defaults for both).
    pub fn job_submit(
        &mut self,
        space: &ScenarioSpace,
        range: Option<Range<usize>>,
        chunk: usize,
        checkpoint_every: usize,
    ) -> Result<JobSnapshot, ClientError> {
        let range = range.unwrap_or(0..space.len());
        let request = Request::JobSubmit {
            space: super::protocol::SpaceSpec::Explicit(space.clone()),
            start: range.start,
            end: range.end,
            chunk,
            checkpoint_every,
        };
        match self.single(request)? {
            Response::Job(snapshot) => Ok(snapshot),
            other => Err(unexpected("Job", &other)),
        }
    }

    /// The current snapshot of job `id`.
    pub fn job_status(&mut self, id: &str) -> Result<JobSnapshot, ClientError> {
        match self.single(Request::JobStatus { id: id.to_string() })? {
            Response::Job(snapshot) => Ok(snapshot),
            other => Err(unexpected("Job", &other)),
        }
    }

    /// Request cancellation of job `id` (graceful: the runner checkpoints
    /// before parking it).
    pub fn job_cancel(&mut self, id: &str) -> Result<JobSnapshot, ClientError> {
        match self.single(Request::JobCancel { id: id.to_string() })? {
            Response::Job(snapshot) => Ok(snapshot),
            other => Err(unexpected("Job", &other)),
        }
    }

    /// Re-queue a settled job; only incomplete windows are re-evaluated.
    pub fn job_resume(&mut self, id: &str) -> Result<JobSnapshot, ClientError> {
        match self.single(Request::JobResume { id: id.to_string() })? {
            Response::Job(snapshot) => Ok(snapshot),
            other => Err(unexpected("Job", &other)),
        }
    }

    /// Poll job `id` until it settles (completed, cancelled, failed or
    /// suspended) or `timeout` elapses; returns the last snapshot either
    /// way, erring only on transport/protocol failures or timeout.
    pub fn job_wait(&mut self, id: &str, timeout: Duration) -> Result<JobSnapshot, ClientError> {
        let deadline = std::time::Instant::now() + timeout;
        loop {
            let snapshot = self.job_status(id)?;
            if snapshot.is_settled() {
                return Ok(snapshot);
            }
            if std::time::Instant::now() >= deadline {
                return Err(err(format!(
                    "job {id} still `{}` after {:.1}s",
                    snapshot.state,
                    timeout.as_secs_f64()
                )));
            }
            std::thread::sleep(Duration::from_millis(25));
        }
    }

    /// Ask the server to stop accepting connections and exit its serve loop.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        match self.single(Request::Shutdown)? {
            Response::ShuttingDown => Ok(()),
            other => Err(unexpected("ShuttingDown", &other)),
        }
    }
}

/// Map server-reported failures of a single-response call to errors.
fn check_single(response: Response) -> Result<Response, ClientError> {
    match response {
        Response::Error { message } => Err(err(format!("server error: {message}"))),
        Response::Busy { message, estimated_cost_ms } => {
            Err(busy_error(&message, estimated_cost_ms))
        }
        response => Ok(response),
    }
}

/// Read more of a response stream into `decoder`. End of stream is an
/// error naming where inside a message it stopped.
fn fill(decoder: &mut ResponseDecoder, source: &mut impl Read) -> Result<(), ClientError> {
    if decoder.read_from(source)? == 0 {
        let inside = decoder.finish().err().unwrap_or_else(|| "mid-request".to_string());
        return Err(err(format!("server closed the connection {inside}")));
    }
    Ok(())
}

/// Collect the streamed answer to sweep request `id` over `range` from
/// `decoder`, reading more of `source` whenever it runs dry — the path
/// [`Client::sweep`] takes. Each frame's header is checked before any of its
/// payload is read: it must carry `id`, start where the answer so far stops
/// and end inside `range`. Its records are then decoded straight onto the
/// answer, so the answer never outgrows `range` and holds the only copy of a
/// record on this side of the read.
pub fn collect_sweep(
    decoder: &mut ResponseDecoder,
    source: &mut impl Read,
    id: u64,
    range: &Range<usize>,
) -> Result<(Vec<EvalRecord>, SweepStats), ClientError> {
    let mut answer = SweepAnswer::new(range);
    loop {
        let next = answer.next();
        let decoded = decoder.next_into(&mut answer.records, |got, start, count| {
            check_id(got, id)?;
            check_chunk(range, next, start, count)
        });
        match decoded {
            Some(Ok(Decoded::Frame { .. })) => {}
            Some(Ok(Decoded::Line(envelope))) => {
                check_id(envelope.id, id).map_err(err)?;
                if let Some(stats) = answer.take(envelope.response)? {
                    return Ok((answer.records, stats));
                }
            }
            Some(Err(message)) => return Err(err(format!("malformed response: {message}"))),
            None => fill(decoder, source)?,
        }
    }
}

/// Reassemble one sweep's already-decoded responses (chunks in index order,
/// then `SweepDone`) into records plus statistics, under the same rules as
/// [`collect_sweep`]. The pipelined path's sweep answers go through here.
pub fn assemble_sweep(
    responses: Vec<Response>,
    range: &Range<usize>,
) -> Result<(Vec<EvalRecord>, SweepStats), ClientError> {
    let mut answer = SweepAnswer::new(range);
    let mut responses = responses.into_iter();
    while let Some(response) = responses.next() {
        if let Some(stats) = answer.take(response)? {
            if responses.next().is_some() {
                return Err(err("a response follows the sweep's SweepDone"));
            }
            return Ok((answer.records, stats));
        }
    }
    Err(err("sweep ended without a SweepDone"))
}

/// One sweep's answer as it arrives: the order and length rules every way
/// of receiving a sweep shares.
struct SweepAnswer<'a> {
    range: &'a Range<usize>,
    records: Vec<EvalRecord>,
}

impl<'a> SweepAnswer<'a> {
    fn new(range: &'a Range<usize>) -> Self {
        SweepAnswer { range, records: Vec::with_capacity(range.len()) }
    }

    /// The index the next chunk must start at.
    fn next(&self) -> usize {
        self.range.start + self.records.len()
    }

    /// Take one decoded response of the sweep: a chunk is checked and
    /// appended (`None`), `SweepDone` ends the answer with its statistics if
    /// the records cover the range, and anything else is the sweep's error.
    fn take(&mut self, response: Response) -> Result<Option<SweepStats>, ClientError> {
        match response {
            Response::SweepChunk { start, records } => {
                check_chunk(self.range, self.next(), start, records.len()).map_err(err)?;
                self.records.extend(records.into_iter().map(EvalRecord::from));
                Ok(None)
            }
            Response::SweepDone { stats } if self.records.len() == self.range.len() => {
                Ok(Some(stats))
            }
            Response::SweepDone { .. } => Err(err(format!(
                "sweep returned {} of {} records",
                self.records.len(),
                self.range.len()
            ))),
            Response::Error { message } => Err(err(format!("server error: {message}"))),
            Response::Busy { message, estimated_cost_ms } => {
                Err(busy_error(&message, estimated_cost_ms))
            }
            other => Err(unexpected("SweepChunk/SweepDone", &other)),
        }
    }
}

/// Refuse a chunk of `count` records from `start` that does not continue
/// the answer at `next` or that ends past `range`.
fn check_chunk(
    range: &Range<usize>,
    next: usize,
    start: usize,
    count: usize,
) -> Result<(), String> {
    if start != next {
        return Err(format!("out-of-order sweep chunk: expected start {next}, got {start}"));
    }
    if start.checked_add(count).map_or(true, |end| end > range.end) {
        return Err(format!(
            "sweep chunk of {count} records from {start} overruns the requested range {}..{}",
            range.start, range.end
        ));
    }
    Ok(())
}

fn check_id(got: u64, id: u64) -> Result<(), String> {
    if got == id {
        Ok(())
    } else {
        Err(format!("response id {got} does not match request id {id}"))
    }
}

/// A busy rejection as a retryable client error, carrying the planner's
/// cost estimate when the server supplied one.
fn busy_error(message: &str, estimated_cost_ms: f64) -> ClientError {
    let message = if estimated_cost_ms > 0.0 {
        format!("server busy: {message} (estimated query cost {estimated_cost_ms:.1} ms)")
    } else {
        format!("server busy: {message}")
    };
    ClientError { message, busy: true, estimated_cost_ms }
}

fn unexpected(wanted: &str, got: &Response) -> ClientError {
    let label = match got {
        Response::Pong { .. } => "Pong",
        Response::Stats(_) => "Stats",
        Response::Metrics { .. } => "Metrics",
        Response::Catalogue { .. } => "Catalogue",
        Response::ShuttingDown => "ShuttingDown",
        Response::SweepChunk { .. } => "SweepChunk",
        Response::SweepDone { .. } => "SweepDone",
        Response::Records { .. } => "Records",
        Response::Curves { .. } => "Curves",
        Response::Prepared { .. } => "Prepared",
        Response::Job(_) => "Job",
        Response::Error { .. } => "Error",
        Response::Busy { .. } => "Busy",
    };
    err(format!("expected {wanted} response, got {label}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retry_delay_is_deterministic_and_jittered_within_half_to_three_halves() {
        let policy = RetryPolicy::backoff_ms(10, 1_000);
        for attempt in 1..=12u32 {
            for salt in [0u64, 1, 42, u64::MAX] {
                let a = policy.delay(attempt, salt, 0.0);
                let b = policy.delay(attempt, salt, 0.0);
                assert_eq!(a, b, "same (attempt, salt) must reproduce exactly");
                // Nominal for this attempt: base * 2^(n-1) capped.
                let nominal = Duration::from_millis(10)
                    .saturating_mul(1u32.checked_shl(attempt - 1).unwrap_or(u32::MAX))
                    .min(Duration::from_millis(1_000));
                let ratio = a.as_secs_f64() / nominal.as_secs_f64();
                assert!(
                    (0.5..1.5).contains(&ratio),
                    "attempt {attempt} salt {salt}: jitter factor {ratio} outside [0.5, 1.5)"
                );
            }
        }
    }

    #[test]
    fn retry_delay_doubles_then_saturates_at_the_cap() {
        let policy = RetryPolicy::backoff_ms(10, 1_000);
        // Compare jitter-free nominals by dividing the jitter back out:
        // same (attempt, salt) → same factor, so fix the salt and recover
        // the nominal from a second policy with a huge cap.
        let uncapped = RetryPolicy::backoff_ms(10, u64::MAX / 4);
        for attempt in 1..=7u32 {
            // 10ms * 2^6 = 640ms < 1s: no cap engaged yet, identical.
            let capped = policy.delay(attempt, 7, 0.0);
            let free = uncapped.delay(attempt, 7, 0.0);
            assert_eq!(capped, free, "attempt {attempt} below the cap");
        }
        // Far past the cap the schedule is flat: attempts 9 and 10 differ
        // only in jitter, never exceeding cap * 1.5.
        for attempt in [9u32, 10, 33, 64, 1_000] {
            let d = policy.delay(attempt, 7, 0.0);
            assert!(
                d <= Duration::from_millis(1_500),
                "attempt {attempt}: {d:?} exceeds the jittered cap"
            );
            assert!(d >= Duration::from_millis(500), "attempt {attempt}: cap floor holds");
        }
    }

    #[test]
    fn retry_delay_shift_saturation_keeps_high_attempts_finite() {
        // 2^(n-1) overflows u32 from attempt 33 on; checked_shl saturates
        // the multiplier to u32::MAX and saturating_mul pins the product,
        // so the cap rules — no wrap back to tiny delays.
        let policy = RetryPolicy::backoff_ms(1, 2_000);
        let at_32 = policy.delay(32, 5, 0.0);
        for attempt in [33u32, 40, 1_000, u32::MAX] {
            let d = policy.delay(attempt, 5, 0.0);
            assert!(
                (Duration::from_millis(1_000)..=Duration::from_millis(3_000)).contains(&d),
                "attempt {attempt}: saturated delay {d:?} stays at the jittered cap"
            );
        }
        assert!(at_32 >= Duration::from_millis(1_000), "already capped at attempt 32");
    }

    #[test]
    fn retry_delay_floors_at_half_the_estimated_cost_capped() {
        let policy = RetryPolicy::backoff_ms(1, 1_000);
        // A 10s backlog hint floors the first retry at cost/2 = 5s, which
        // the cap then pins to 1s (jittered to at most 1.5s).
        let hinted = policy.delay(1, 3, 10_000.0);
        assert!(hinted >= Duration::from_millis(500), "floor engaged: {hinted:?}");
        assert!(hinted <= Duration::from_millis(1_500), "cap bounds the floor: {hinted:?}");
        // A modest hint floors early attempts without touching the cap:
        // nominal = max(1ms * 2^0, 40ms / 2) = 20ms.
        let modest = policy.delay(1, 3, 40.0);
        assert!(
            (Duration::from_millis(10)..Duration::from_millis(30)).contains(&modest),
            "20ms nominal, jittered: {modest:?}"
        );
        // Negative and NaN-free zero hints degrade to the exponential term.
        let plain = policy.delay(1, 3, 0.0);
        let negative = policy.delay(1, 3, -7.0);
        assert_eq!(plain, negative, "negative hints clamp to no floor");
    }

    #[test]
    fn retry_jitter_seed_mixes_salt_and_attempt() {
        let policy = RetryPolicy::backoff_ms(100, 100_000);
        // Distinct salts de-correlate concurrent retriers on one attempt.
        let salts: Vec<Duration> = (0..16).map(|s| policy.delay(3, s * 7_919, 0.0)).collect();
        let distinct = salts.iter().collect::<std::collections::BTreeSet<_>>().len();
        assert!(distinct >= 15, "salted jitter must not collide in lockstep: {distinct}/16");
        // The `| 1` in the seed keeps the degenerate salt/attempt mix that
        // would zero the xorshift state alive: salt chosen so
        // salt ^ (attempt * GOLDEN) == 0 without it.
        let attempt = 2u32;
        let zeroing_salt = u64::from(attempt).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let d = policy.delay(attempt, zeroing_salt, 0.0);
        let nominal = Duration::from_millis(200);
        let ratio = d.as_secs_f64() / nominal.as_secs_f64();
        assert!(
            (0.5..1.5).contains(&ratio),
            "zero-seed guard still jitters within bounds: {ratio}"
        );
    }
}
