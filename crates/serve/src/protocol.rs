//! The wire protocol: line-delimited JSON requests and responses, plus one
//! binary frame for the message that dominates the stream.
//!
//! Every request, and every response but one, is one JSON object on one
//! line. Clients send [`RequestEnvelope`]s (`{"id":N,"request":{...}}`) and
//! receive one or more [`ResponseEnvelope`]s tagged with the same id; every
//! request is answered by exactly one **terminal** response, optionally
//! preceded by streamed [`Response::SweepChunk`]s: a sweep's records arrive
//! in index-ordered chunks, each encoded and queued before the next window
//! is built, so a large answer is never buffered as one whole-result message
//! (at most one window's wire copy is alive at a time on the server).
//! Correlation ids are client-chosen but must be **≥ 1**: id `0` is reserved
//! for server-generated [`Response::Error`]s about lines that could not be
//! parsed into a request at all.
//!
//! ## Chunk frames
//!
//! A [`Response::SweepChunk`] is the one message that does not travel as
//! JSON (since `mp-serve/6`). It is a **frame**
//! ([`encode_chunk_frame`]): a JSON header line
//!
//! ```text
//! {"id":7,"frame":{"start":8192,"count":8192}}\n
//! ```
//!
//! followed by exactly `count × 24` payload bytes — per record `speedup`,
//! `cores`, `area`, each as `f64::to_bits().to_le_bytes()`; the record's
//! index is implied (`start + i`) because a chunk is always a consecutive
//! run. The header is an ordinary line, so [`LineDecoder`] stays the one
//! framing layer and ids and ordering are uniform with every other reply;
//! the payload carries the engine's bits themselves, so `NaN` markers and
//! every other bit pattern are exact by construction. Each record is copied
//! once on either side of the wire: [`encode_chunk_frame`] writes its words
//! into a buffer the server sized for the whole window, and
//! [`ResponseDecoder`] — the one reader of a response stream — decodes them
//! from its read buffer either into a [`Response::SweepChunk`] or straight
//! onto a sweep's answer (`client::collect_sweep`).
//!
//! ## Bit-exactness of `Records`
//!
//! The records of a [`Response::Records`] answer (`top_k`, `pareto` — a
//! handful per reply) travel inside their JSON line as [`WireRecord`]s: the
//! three `f64` fields are encoded as 16-digit hex bit patterns, never as
//! JSON numbers. JSON cannot represent `NaN` (the engine's marker for
//! designs that do not fit their budget) and a decimal round-trip of a
//! computed `NaN` would not be bit-stable, so the hex encoding is what lets
//! the differential tests assert that those answers too are *bit-identical*
//! to a direct [`Engine::sweep`]. Figure curves ([`Response::Curves`])
//! contain only finite values and use plain numbers, which the workspace's
//! JSON printer round-trips exactly.
//!
//! [`Engine::sweep`]: mp_dse::engine::Engine::sweep

use serde::{Deserialize, Serialize};

use mp_dse::analysis::CostAxis;
use mp_dse::cache::CacheStats;
use mp_dse::engine::{EvalRecord, SweepStats};
use mp_dse::scenario::ScenarioSpace;
use mp_model::explore::{Curve, Figure};

/// Protocol identity reported by `ping`; bump on incompatible changes.
pub const PROTOCOL_VERSION: &str = "mp-serve/7";

/// Default scenario count per streamed sweep chunk: one frame of
/// `8192 × FRAME_RECORD_BYTES` = 192 KiB of payload behind a ~50-byte header.
pub const DEFAULT_CHUNK: usize = 8192;

/// Payload bytes per record of a chunk frame: three little-endian `f64` bit
/// patterns (`speedup`, `cores`, `area`).
pub const FRAME_RECORD_BYTES: usize = 24;

/// Longest request line the server accepts, in bytes. A line that grows past
/// this without a newline is answered with an id-0 [`Response::Error`] and
/// discarded up to its terminating newline; the connection survives. The cap
/// is what keeps one connection's receive buffer bounded no matter what the
/// client sends.
pub const MAX_REQUEST_LINE: usize = 4 << 20;

/// One client request, tagged with a client-chosen correlation id.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RequestEnvelope {
    /// Correlation id echoed on every response to this request. Must be
    /// ≥ 1 — id `0` is reserved for server errors about unparseable lines.
    pub id: u64,
    /// The request itself.
    pub request: Request,
}

/// The scenario space a query runs over: sent explicitly, or assembled from
/// the service's calibration catalogue so clients can address calibrated
/// applications by id instead of shipping parameter sets.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum SpaceSpec {
    /// A fully explicit space.
    Explicit(ScenarioSpace),
    /// `space` with its application axis replaced by the catalogue entries
    /// named by `ids` (16-hex-digit fingerprints from [`Response::Catalogue`]),
    /// in the given order.
    Catalogue {
        /// Catalogue ids supplying the application axis.
        ids: Vec<String>,
        /// The remaining axes (its own application axis is ignored).
        space: ScenarioSpace,
    },
    /// A space previously registered with [`Request::Prepare`], addressed by
    /// the 16-hex-digit id the server returned. The request is ~60 bytes
    /// instead of the space's whole JSON, and the server skips the parse,
    /// clone and fingerprint work on every query — the protocol's
    /// prepared-statement analogue. Ids are served LRU: a long-evicted id
    /// answers with an error and the client re-prepares.
    Prepared {
        /// The id from [`Response::Prepared`].
        id: String,
    },
}

/// A query or control message.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Request {
    /// Liveness / version probe.
    Ping,
    /// Service, engine and cache statistics.
    Stats,
    /// The service's metrics-registry snapshot (counters, gauges,
    /// latency histograms) as JSON plus Prometheus exposition text.
    Metrics,
    /// List the service's calibration catalogue.
    Catalogue,
    /// Stop accepting connections and exit the serve loop.
    Shutdown,
    /// Evaluate `[start, end)` of the space (the full space when
    /// `start == 0 && end == space.len()`); records stream back in
    /// index-ordered chunks of `chunk` scenarios (`0` = server default).
    Sweep {
        /// The space to sweep.
        space: SpaceSpec,
        /// First flat scenario index (inclusive).
        start: usize,
        /// Last flat scenario index (exclusive).
        end: usize,
        /// At most this many records per streamed chunk (`0`, or anything
        /// above [`DEFAULT_CHUNK`], = [`DEFAULT_CHUNK`]).
        chunk: usize,
    },
    /// The `k` highest-speedup records of a full sweep.
    TopK {
        /// The space to sweep.
        space: SpaceSpec,
        /// Number of records to return.
        k: usize,
    },
    /// The Pareto frontier (speedup vs `cost`) of a full sweep.
    Pareto {
        /// The space to sweep.
        space: SpaceSpec,
        /// The cost axis to minimise.
        cost: CostAxis,
    },
    /// The engine-reproduced curve family of one paper figure.
    Curve {
        /// Which figure.
        figure: Figure,
    },
    /// Register a space server-side and get back a [`SpaceSpec::Prepared`]
    /// id for it: the space is resolved, its columnar tables are built (or
    /// found warm) and pinned in the prepared-handle cache, and subsequent
    /// queries can address it by id instead of shipping it.
    Prepare {
        /// The space to prepare.
        space: SpaceSpec,
    },
    /// Submit a **durable job**: a sweep of `[start, end)` driven window by
    /// window by a background runner instead of streamed on this
    /// connection. The answer is an immediate [`Response::Job`] snapshot;
    /// progress is polled with [`Request::JobStatus`]. On a server started
    /// with a jobs directory, the job checkpoints every `checkpoint_every`
    /// windows and survives a crash (see the `jobs` module docs).
    JobSubmit {
        /// The space to sweep.
        space: SpaceSpec,
        /// First flat scenario index (inclusive).
        start: usize,
        /// Last flat scenario index (exclusive).
        end: usize,
        /// Scenarios per runner window (`0` = [`DEFAULT_CHUNK`]). Windows
        /// are the unit of checkpointing, retry and resume.
        chunk: usize,
        /// Checkpoint cadence in completed windows (`0` = server default).
        checkpoint_every: usize,
    },
    /// A snapshot of one job's state and progress.
    JobStatus {
        /// The id from the submit-time [`Response::Job`].
        id: String,
    },
    /// Graceful cancel: the runner stops after the window in flight,
    /// checkpoints, and parks the job as `cancelled` (resumable).
    JobCancel {
        /// The id from the submit-time [`Response::Job`].
        id: String,
    },
    /// Re-enqueue a `suspended` (restored from disk), `failed` or
    /// `cancelled` job. Completed windows are **not** re-evaluated.
    JobResume {
        /// The id from the submit-time [`Response::Job`].
        id: String,
    },
}

impl Request {
    /// The request's stable verb name: the label used for per-verb metric
    /// series (`requests_total_<verb>`, `serve_request_ms_<verb>`) and the
    /// name of the request's span.
    pub fn verb(&self) -> &'static str {
        match self {
            Request::Ping => "ping",
            Request::Stats => "stats",
            Request::Metrics => "metrics",
            Request::Catalogue => "catalogue",
            Request::Shutdown => "shutdown",
            Request::Sweep { .. } => "sweep",
            Request::TopK { .. } => "top_k",
            Request::Pareto { .. } => "pareto",
            Request::Curve { .. } => "curve",
            Request::Prepare { .. } => "prepare",
            Request::JobSubmit { .. } => "job_submit",
            Request::JobStatus { .. } => "job_status",
            Request::JobCancel { .. } => "job_cancel",
            Request::JobResume { .. } => "job_resume",
        }
    }
}

/// One service response, tagged with the originating request's id.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ResponseEnvelope {
    /// Correlation id of the request being answered.
    pub id: u64,
    /// The response payload.
    pub response: Response,
}

/// A response payload. [`Response::SweepChunk`] is the only non-terminal
/// variant; everything else completes its request.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Response {
    /// Answer to [`Request::Ping`].
    Pong {
        /// The server's [`PROTOCOL_VERSION`].
        version: String,
    },
    /// Answer to [`Request::Stats`].
    Stats(ServiceStats),
    /// Answer to [`Request::Metrics`].
    Metrics {
        /// The registry snapshot as one JSON object
        /// (`{"counters":{..},"gauges":{..},"histograms":{..}}`).
        json: String,
        /// The same snapshot as Prometheus exposition text.
        prometheus: String,
    },
    /// Answer to [`Request::Catalogue`].
    Catalogue {
        /// Every registered calibration.
        entries: Vec<CatalogueEntry>,
    },
    /// Acknowledgement of [`Request::Shutdown`].
    ShuttingDown,
    /// One index-ordered slice of an in-flight sweep (non-terminal).
    SweepChunk {
        /// Flat scenario index of the first record in the chunk.
        start: usize,
        /// The records, consecutive from `start`.
        records: Vec<WireRecord>,
    },
    /// Terminal line of a sweep: the merged statistics.
    SweepDone {
        /// The sweep's statistics, summed over its windows.
        stats: SweepStats,
    },
    /// Answer to [`Request::TopK`] / [`Request::Pareto`].
    Records {
        /// The selected records, in result order.
        records: Vec<WireRecord>,
    },
    /// Answer to [`Request::Curve`].
    Curves {
        /// The figure's curve family.
        curves: Vec<Curve>,
    },
    /// Answer to [`Request::Prepare`].
    Prepared {
        /// The id [`SpaceSpec::Prepared`] takes (16 hex digits).
        id: String,
        /// Scenario count of the prepared space (what range queries are
        /// validated against).
        scenarios: usize,
    },
    /// Answer to every job verb: the job's state snapshot after the verb
    /// took effect.
    Job(JobSnapshot),
    /// The request failed; no further responses follow.
    Error {
        /// Human-readable reason.
        message: String,
    },
    /// The query would take the service's estimated backlog past its
    /// admission budget; the request was **not** executed and can be
    /// retried. Terminal, like [`Response::Error`], but
    /// distinguishable so clients can back off instead of giving up.
    Busy {
        /// Human-readable reason: the backlog and budget behind the
        /// rejection.
        message: String,
        /// The planner's cost estimate for the rejected query in
        /// milliseconds (`0.0` when the rejection predates costing). Lets a
        /// client scale its backoff to the work it asked for.
        estimated_cost_ms: f64,
    },
}

impl Response {
    /// Whether this response completes its request.
    pub fn is_terminal(&self) -> bool {
        !matches!(self, Response::SweepChunk { .. })
    }
}

/// One durable job's state and progress in wire form — what every job verb
/// answers with ([`Response::Job`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobSnapshot {
    /// The job's id (assign at submit, stable across restarts).
    pub id: String,
    /// Lifecycle state: `queued`, `running`, `suspended` (restored from
    /// disk, awaiting resume), `cancelling`, `cancelled`, `completed` or
    /// `failed`.
    pub state: String,
    /// Why the job parked as `failed` (empty otherwise).
    pub reason: String,
    /// The swept space's content fingerprint, 16 hex digits.
    pub fingerprint: String,
    /// First flat scenario index (inclusive).
    pub start: usize,
    /// Last flat scenario index (exclusive).
    pub end: usize,
    /// Scenarios per runner window.
    pub window: usize,
    /// Total windows in `[start, end)`.
    pub windows_total: usize,
    /// Windows evaluated and recorded complete.
    pub windows_completed: usize,
    /// Scenarios inside completed windows.
    pub scenarios_completed: usize,
    /// Window attempts that failed and were retried (or gave up) over the
    /// job's lifetime.
    pub retries: u64,
    /// Checkpoints persisted over the job's lifetime.
    pub checkpoints: u64,
    /// Checkpoint cadence, completed windows per checkpoint.
    pub checkpoint_every: usize,
}

impl JobSnapshot {
    /// Whether the state is one the runner will make no further progress on
    /// without an explicit `resume` (`completed`, `cancelled`, `failed` or
    /// `suspended`).
    pub fn is_settled(&self) -> bool {
        matches!(self.state.as_str(), "completed" | "cancelled" | "failed" | "suspended")
    }
}

/// Aggregate service statistics.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ServiceStats {
    /// The backend the service evaluates with.
    pub backend: String,
    /// Sweep threads of the service's engine.
    pub threads: usize,
    /// The engine's memoisation-cache snapshot.
    pub cache: CacheStats,
    /// Queries answered since the service started.
    pub queries: u64,
    /// Prepared sweep snapshots ([`SpaceTables`]) resident in the handle
    /// cache.
    ///
    /// [`SpaceTables`]: mp_dse::tables::SpaceTables
    pub prepared_spaces: usize,
    /// Seconds since the service started.
    pub uptime_seconds: f64,
    /// The service's metrics-registry snapshot at stats time, as one
    /// JSON object (same shape as [`Response::Metrics`]'s `json`).
    pub metrics: String,
}

/// One calibration catalogue listing.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CatalogueEntry {
    /// Fingerprint id (16 hex digits) — what [`SpaceSpec::Catalogue`] takes.
    pub id: String,
    /// Application name.
    pub name: String,
    /// Fitted growth-function label.
    pub growth: String,
    /// Parallel fraction of the calibration.
    pub f: f64,
    /// Root-mean-square residual of the growth fit.
    pub fit_rmse: f64,
}

/// An [`EvalRecord`] in wire form: `[index, speedup, cores, area]` with the
/// floats as 16-digit hex bit patterns (see the module docs for why).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WireRecord(pub EvalRecord);

impl From<EvalRecord> for WireRecord {
    fn from(record: EvalRecord) -> Self {
        WireRecord(record)
    }
}

impl From<WireRecord> for EvalRecord {
    fn from(wire: WireRecord) -> Self {
        wire.0
    }
}

/// Convert records to wire form.
pub fn to_wire(records: &[EvalRecord]) -> Vec<WireRecord> {
    records.iter().copied().map(WireRecord).collect()
}

/// Convert wire records back to engine records.
pub fn from_wire(records: &[WireRecord]) -> Vec<EvalRecord> {
    records.iter().map(|w| w.0).collect()
}

impl Serialize for WireRecord {
    fn to_value(&self) -> serde::Value {
        serde::Value::Arr(vec![
            serde::Value::Num(self.0.index as f64),
            serde::Value::Str(format!("{:016x}", self.0.speedup.to_bits())),
            serde::Value::Str(format!("{:016x}", self.0.cores.to_bits())),
            serde::Value::Str(format!("{:016x}", self.0.area.to_bits())),
        ])
    }
}

impl Deserialize for WireRecord {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let arr = v.as_arr().ok_or_else(|| serde::Error::new("expected wire-record array"))?;
        if arr.len() != 4 {
            return Err(serde::Error::new("wire record must have 4 elements"));
        }
        let index = arr[0]
            .as_f64()
            .ok_or_else(|| serde::Error::new("wire record index must be a number"))?
            as usize;
        let mut bits = [0u64; 3];
        for (slot, value) in bits.iter_mut().zip(&arr[1..]) {
            let hex =
                value.as_str().ok_or_else(|| serde::Error::new("expected hex-bits string"))?;
            *slot = u64::from_str_radix(hex, 16)
                .map_err(|_| serde::Error::new("malformed hex-bits string"))?;
        }
        Ok(WireRecord(EvalRecord {
            index,
            speedup: f64::from_bits(bits[0]),
            cores: f64::from_bits(bits[1]),
            area: f64::from_bits(bits[2]),
        }))
    }
}

/// Incremental splitter of a byte stream into protocol lines.
///
/// This is the reactor's per-connection receive state: bytes arrive in
/// whatever pieces the socket produces ([`LineDecoder::push`]), and
/// [`LineDecoder::next_line`] drains complete newline-terminated lines as
/// they become available — a line split across any number of reads, or many
/// lines in one read, decode identically. The buffer is bounded: a line
/// longer than `max_line` yields one error and is then discarded up to its
/// terminating newline, after which decoding resumes cleanly — one abusive
/// (or corrupted) line costs one error response, not the connection or the
/// server's memory. Bytes that are not valid UTF-8 likewise yield an error
/// for that line only.
///
/// Empty and whitespace-only lines are skipped, matching the blocking
/// server's behaviour since protocol v1.
#[derive(Debug)]
pub struct LineDecoder {
    /// Received bytes are `buf[start..end]`; `buf[end..]` is initialised
    /// room a read can land in directly.
    buf: Vec<u8>,
    /// Bytes before `start` have been consumed.
    start: usize,
    /// Bytes from `end` on have not been received.
    end: usize,
    /// Scan for the next newline resumes here (never rescans consumed bytes).
    scanned: usize,
    max_line: usize,
    /// An oversized line is being discarded up to its newline; the error has
    /// already been emitted.
    skipping: bool,
}

impl LineDecoder {
    /// A decoder that rejects lines longer than `max_line` bytes.
    pub fn new(max_line: usize) -> Self {
        assert!(max_line > 0, "line limit must be positive");
        LineDecoder { buf: Vec::new(), start: 0, end: 0, scanned: 0, max_line, skipping: false }
    }

    /// Append newly received bytes.
    pub fn push(&mut self, bytes: &[u8]) {
        self.compact();
        self.buf.truncate(self.end);
        self.buf.extend_from_slice(bytes);
        self.end = self.buf.len();
    }

    /// One read of `source` straight into the buffer, with room for at least
    /// `room` bytes — [`LineDecoder::push`] without a caller-side buffer to
    /// copy from. Returns what `source.read` returned (`0` at end of stream).
    pub(crate) fn read_from(
        &mut self,
        source: &mut impl std::io::Read,
        room: usize,
    ) -> std::io::Result<usize> {
        self.compact();
        if self.buf.len() - self.end < room {
            // Twice the room: the partial message compaction leaves at the
            // front then never makes a later read grow the buffer again.
            self.buf.resize(self.end + 2 * room, 0);
        }
        let read = source.read(&mut self.buf[self.end..])?;
        self.end += read;
        Ok(read)
    }

    /// Bytes currently buffered (diagnostics; bounded by `max_line` plus one
    /// read's worth).
    pub fn buffered(&self) -> usize {
        self.end - self.start
    }

    /// The next complete line, `Err` for a line that cannot become a request
    /// (oversized or not UTF-8), or `None` when more bytes are needed.
    pub fn next_line(&mut self) -> Option<Result<String, String>> {
        self.next_str().map(|line| line.map(str::to_string))
    }

    /// [`LineDecoder::next_line`], borrowing the line from the buffer.
    fn next_str(&mut self) -> Option<Result<&str, String>> {
        let line = match self.next_span()? {
            Ok(line) => line,
            Err(message) => return Some(Err(message)),
        };
        Some(
            std::str::from_utf8(&self.buf[line])
                .map(|s| s.trim_end_matches('\r'))
                .map_err(|_| "request line is not valid UTF-8".to_string()),
        )
    }

    /// Where in the buffer the next complete, non-blank line lies (its
    /// newline excluded), or the oversize error that replaces it.
    fn next_span(&mut self) -> Option<Result<std::ops::Range<usize>, String>> {
        loop {
            let newline = self.buf[self.scanned..self.end].iter().position(|&b| b == b'\n');
            match newline {
                Some(offset) => {
                    let end = self.scanned + offset;
                    let line_start = self.start;
                    self.start = end + 1;
                    self.scanned = self.start;
                    if self.skipping {
                        // The tail of a line already reported as oversized.
                        self.skipping = false;
                        continue;
                    }
                    if end - line_start > self.max_line {
                        // The whole over-limit line (newline included)
                        // arrived inside one read, so the no-newline cap
                        // check never fired; the limit must not depend on
                        // how TCP happened to segment the bytes.
                        return Some(Err(format!(
                            "request line exceeds the {}-byte limit",
                            self.max_line
                        )));
                    }
                    if self.buf[line_start..end].iter().all(|b| b.is_ascii_whitespace()) {
                        continue;
                    }
                    return Some(Ok(line_start..end));
                }
                None => {
                    self.scanned = self.end;
                    if self.skipping {
                        // Still inside a line already reported as oversized:
                        // discard its continuation *now*, not at the
                        // newline — otherwise a client streaming a
                        // newline-free torrent would grow this buffer
                        // without bound despite the cap.
                        self.start = self.end;
                        return None;
                    }
                    if self.buffered() <= self.max_line {
                        return None;
                    }
                    // Discard the oversized prefix now (the bytes can never
                    // be part of a valid line) and keep discarding until the
                    // newline arrives.
                    self.start = self.end;
                    self.skipping = true;
                    return Some(Err(format!(
                        "request line exceeds the {}-byte limit",
                        self.max_line
                    )));
                }
            }
        }
    }

    /// The next `n` raw bytes, or `None` until that many are buffered — the
    /// payload of a chunk frame, which follows its header line unterminated
    /// and may contain any byte, `\n` included. Call it only between lines
    /// (right after [`LineDecoder::next_line`] returned the header).
    pub fn next_bytes(&mut self, n: usize) -> Option<&[u8]> {
        if self.buffered() < n {
            return None;
        }
        let from = self.start;
        self.start += n;
        self.scanned = self.start;
        Some(&self.buf[from..self.start])
    }

    /// Drop consumed bytes once they dominate the buffer, so the allocation
    /// tracks the *unconsumed* tail instead of growing with connection
    /// lifetime.
    fn compact(&mut self) {
        if self.start == self.end {
            self.start = 0;
            self.end = 0;
            self.scanned = 0;
        } else if self.start > 4096 && self.start >= self.end / 2 {
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.scanned -= self.start;
            self.start = 0;
        }
    }
}

/// Encode one protocol message as its wire line (no trailing newline).
pub fn encode_line<T: Serialize>(message: &T) -> String {
    serde_json::to_string(message).expect("protocol messages always serialise")
}

/// Decode one wire line.
pub fn decode_line<T: Deserialize>(line: &str) -> Result<T, String> {
    serde_json::from_str(line).map_err(|e| e.to_string())
}

/// The header line of a chunk frame: `{"id":N,"frame":{"start":S,"count":C}}`.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
struct FrameHeader {
    id: u64,
    frame: FrameSpan,
}

/// Which records a frame's payload holds: `count` consecutive ones from
/// flat scenario index `start`.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
struct FrameSpan {
    start: usize,
    count: usize,
}

/// Most bytes a chunk frame's header line takes, newline included: what a
/// caller reserves per frame, beside `FRAME_RECORD_BYTES` a record, so that
/// [`encode_chunk_frame`] never grows its buffer.
pub const MAX_FRAME_HEADER: usize = 96;

/// Whole numbers below this travel as plain JSON integers; from here on the
/// workspace's JSON printer spells them through `f64`.
const EXACT_INTEGERS: u64 = 1 << 53;

/// Append one sweep chunk to `out` as a frame (module docs, § Chunk frames):
/// the header line, then `records.len() × FRAME_RECORD_BYTES` payload bytes.
/// Every byte is written once, straight behind what `out` already holds; a
/// buffer with room for [`MAX_FRAME_HEADER`] plus the payload is not grown.
///
/// # Panics
///
/// If `records` is not the consecutive run `start, start + 1, …` — the
/// payload carries no indices, so any other slice would decode to a wrong
/// answer.
pub fn encode_chunk_frame(out: &mut Vec<u8>, id: u64, start: usize, records: &[EvalRecord]) {
    out.reserve(MAX_FRAME_HEADER + records.len() * FRAME_RECORD_BYTES);
    let count = records.len();
    if [id, start as u64, count as u64].iter().all(|&n| n < EXACT_INTEGERS) {
        use std::io::Write;
        // `encode_line`'s bytes for these integers, without its value tree.
        writeln!(out, "{{\"id\":{id},\"frame\":{{\"start\":{start},\"count\":{count}}}}}")
            .expect("writing to a Vec cannot fail");
    } else {
        let header = FrameHeader { id, frame: FrameSpan { start, count } };
        out.extend_from_slice(encode_line(&header).as_bytes());
        out.push(b'\n');
    }
    for (offset, record) in records.iter().enumerate() {
        assert_eq!(
            record.index,
            start + offset,
            "a chunk frame holds consecutive records from its start"
        );
        let mut slot = [0u8; FRAME_RECORD_BYTES];
        slot[..8].copy_from_slice(&record.speedup.to_bits().to_le_bytes());
        slot[8..16].copy_from_slice(&record.cores.to_bits().to_le_bytes());
        slot[16..].copy_from_slice(&record.area.to_bits().to_le_bytes());
        out.extend_from_slice(&slot);
    }
}

/// One little-endian `f64` bit pattern of a frame payload.
fn frame_word(raw: &[u8]) -> f64 {
    f64::from_bits(u64::from_le_bytes(raw.try_into().expect("a frame word is 8 bytes")))
}

/// Parse a plain non-negative decimal integer prefix (the only form the
/// compact printer emits for ids, starts, counts and indices).
fn take_integer(s: &str) -> Option<(u128, &str)> {
    let bytes = s.as_bytes();
    let mut end = 0;
    let mut value: u128 = 0;
    while end < bytes.len() && bytes[end].is_ascii_digit() {
        value = value.checked_mul(10)?.checked_add((bytes[end] - b'0') as u128)?;
        end += 1;
    }
    // Reject empty matches, and any value past f64's exact-integer range —
    // the generic path round-trips numbers through f64, so the fast path
    // only accepts what both paths decode identically.
    if end == 0 || value >= (1u128 << 53) {
        return None;
    }
    Some((value, &s[end..]))
}

/// A frame header spelled exactly as [`encode_chunk_frame`] spells one with
/// integers below 2^53, read without building a value tree; `None` for
/// anything else, which then takes the generic parser — so this can decline
/// a header, never misread one.
fn decode_frame_header(line: &str) -> Option<FrameHeader> {
    let rest = line.strip_prefix("{\"id\":")?;
    let (id, rest) = take_integer(rest)?;
    let rest = rest.strip_prefix(",\"frame\":{\"start\":")?;
    let (start, rest) = take_integer(rest)?;
    let rest = rest.strip_prefix(",\"count\":")?;
    let (count, rest) = take_integer(rest)?;
    (rest == "}}").then_some(FrameHeader {
        id: id as u64,
        frame: FrameSpan { start: start as usize, count: count as usize },
    })
}

/// One response line: an envelope, or the header of a frame whose payload
/// follows.
enum ResponseLine {
    Envelope(ResponseEnvelope),
    Frame(FrameHeader),
}

fn parse_response_line(line: &str) -> Result<ResponseLine, String> {
    let header = match decode_frame_header(line) {
        Some(header) => header,
        None => {
            let value = serde_json::parse(line).map_err(|e| e.to_string())?;
            if !value.as_map().is_some_and(|map| map.iter().any(|(key, _)| key == "frame")) {
                return ResponseEnvelope::from_value(&value)
                    .map(ResponseLine::Envelope)
                    .map_err(|e| e.to_string());
            }
            FrameHeader::from_value(&value).map_err(|e| e.to_string())?
        }
    };
    let FrameSpan { start, count } = header.frame;
    if count.checked_mul(FRAME_RECORD_BYTES).is_none() || start.checked_add(count).is_none() {
        return Err(format!("chunk frame of {count} records from {start} overflows"));
    }
    Ok(ResponseLine::Frame(header))
}

/// A frame whose header has been read and whose payload is still arriving.
#[derive(Debug, Clone, Copy)]
struct OwedFrame {
    id: u64,
    start: usize,
    count: usize,
    /// Records of the payload already decoded.
    decoded: usize,
}

/// A whole message of a response stream, as [`ResponseDecoder::next_into`]
/// yields it.
pub(crate) enum Decoded {
    /// A JSON response line.
    Line(ResponseEnvelope),
    /// A chunk frame, its records all appended to the caller's vector.
    Frame {
        /// Correlation id from the frame header.
        id: u64,
        /// Flat scenario index of the frame's first record.
        start: usize,
    },
}

/// Bytes asked of the source per [`ResponseDecoder::read_from`].
const READ_BYTES: usize = 64 * 1024;

/// Incremental decoder of a server's response stream — the one reader of
/// it: JSON lines become their [`ResponseEnvelope`]s and chunk frames become
/// records, from bytes pushed in whatever pieces the socket produces. A
/// frame split anywhere — inside its header, between header and payload,
/// inside an 8-byte word — decodes identically, and a payload byte equal to
/// `\n` is never taken for a line end.
///
/// Drained as an [`Iterator`], a frame comes out as a
/// [`Response::SweepChunk`] envelope. A sweep's collector instead decodes
/// each frame straight onto its answer (`client::collect_sweep`), after
/// checking the frame's header against the range it asked for; both go
/// through the same frame decoder.
///
/// Feed it with [`ResponseDecoder::push`], drain it by iterating (`None`
/// means *more bytes needed*, not *finished* — iterate again after the next
/// push), and on EOF ask [`ResponseDecoder::finish`] whether the stream
/// stopped between messages. The first error is final: the position of the
/// next message is unknown after it, so every later call repeats it and the
/// connection should be dropped.
///
/// No length is trusted before it is checked: a header whose
/// `count × FRAME_RECORD_BYTES` or `start + count` overflows is an error, and
/// records are allocated as their payload bytes arrive — never from the
/// count alone.
#[derive(Debug)]
pub struct ResponseDecoder {
    lines: LineDecoder,
    owed: Option<OwedFrame>,
    /// The records of the frame in flight while the decoder is drained as an
    /// iterator.
    chunk: Vec<EvalRecord>,
    failed: Option<String>,
}

impl Default for ResponseDecoder {
    fn default() -> Self {
        ResponseDecoder::new()
    }
}

impl ResponseDecoder {
    /// A decoder at the start of a response stream. Response lines are not
    /// capped: the server is trusted, and a `Records` or `Metrics` line is
    /// legitimately large.
    pub fn new() -> Self {
        ResponseDecoder {
            lines: LineDecoder::new(usize::MAX / 2),
            owed: None,
            chunk: Vec::new(),
            failed: None,
        }
    }

    /// Append newly received bytes.
    pub fn push(&mut self, bytes: &[u8]) {
        self.lines.push(bytes);
    }

    /// One read of `source` straight into the decoder's buffer: what
    /// `source.read` returned, `0` at end of stream.
    pub(crate) fn read_from(&mut self, source: &mut impl std::io::Read) -> std::io::Result<usize> {
        self.lines.read_from(source, READ_BYTES)
    }

    /// At EOF: `Ok` when the stream stopped between messages, otherwise
    /// where inside one it stopped (`mid-line`, `mid-frame (…)`) — a
    /// truncated message is never decoded short.
    pub fn finish(&self) -> Result<(), String> {
        match self.owed {
            Some(frame) => Err(format!(
                "mid-frame ({} of {} payload bytes arrived)",
                frame.decoded * FRAME_RECORD_BYTES + self.lines.buffered(),
                frame.count * FRAME_RECORD_BYTES
            )),
            None if self.lines.buffered() > 0 => Err("mid-line".to_string()),
            None => Ok(()),
        }
    }

    /// The next whole message, an error (see the type docs), or `None` when
    /// more bytes are needed. A frame's header is shown to `admit` (`id`,
    /// `start`, `count`) before any of its payload is read, and an `Err` from
    /// it is the decoder's error; the payload's records are then appended to
    /// `records` as their bytes arrive, across as many calls as that takes,
    /// and the call that appends the last one returns [`Decoded::Frame`].
    pub(crate) fn next_into(
        &mut self,
        records: &mut Vec<EvalRecord>,
        admit: impl FnOnce(u64, usize, usize) -> Result<(), String>,
    ) -> Option<Result<Decoded, String>> {
        if let Some(message) = &self.failed {
            return Some(Err(message.clone()));
        }
        let decoded = self.decode_into(records, admit);
        if let Some(Err(message)) = &decoded {
            self.failed = Some(message.clone());
        }
        decoded
    }

    fn decode_into(
        &mut self,
        records: &mut Vec<EvalRecord>,
        admit: impl FnOnce(u64, usize, usize) -> Result<(), String>,
    ) -> Option<Result<Decoded, String>> {
        if self.owed.is_none() {
            let header = match self.lines.next_str()?.and_then(parse_response_line) {
                Ok(ResponseLine::Envelope(envelope)) => return Some(Ok(Decoded::Line(envelope))),
                Ok(ResponseLine::Frame(header)) => header,
                Err(message) => return Some(Err(message)),
            };
            let FrameHeader { id, frame: FrameSpan { start, count } } = header;
            if let Err(message) = admit(id, start, count) {
                return Some(Err(message));
            }
            self.owed = Some(OwedFrame { id, start, count, decoded: 0 });
        }
        let owed = self.owed.as_mut()?;
        let whole = (self.lines.buffered() / FRAME_RECORD_BYTES).min(owed.count - owed.decoded);
        let first = owed.start + owed.decoded;
        let payload =
            self.lines.next_bytes(whole * FRAME_RECORD_BYTES).expect("whole records are buffered");
        records.extend(payload.chunks_exact(FRAME_RECORD_BYTES).enumerate().map(
            |(offset, raw)| EvalRecord {
                index: first + offset,
                speedup: frame_word(&raw[..8]),
                cores: frame_word(&raw[8..16]),
                area: frame_word(&raw[16..]),
            },
        ));
        owed.decoded += whole;
        if owed.decoded < owed.count {
            return None;
        }
        let OwedFrame { id, start, .. } = self.owed.take()?;
        Some(Ok(Decoded::Frame { id, start }))
    }
}

impl Iterator for ResponseDecoder {
    type Item = Result<ResponseEnvelope, String>;

    /// The next complete response, an error (see the type docs), or `None`
    /// when more bytes are needed.
    fn next(&mut self) -> Option<Self::Item> {
        let mut records = std::mem::take(&mut self.chunk);
        let Some(decoded) = self.next_into(&mut records, |_, _, _| Ok(())) else {
            // A frame's records so far wait for the rest of its payload.
            self.chunk = records;
            return None;
        };
        Some(decoded.map(|decoded| match decoded {
            Decoded::Line(envelope) => envelope,
            Decoded::Frame { id, start } => {
                let records = records.into_iter().map(WireRecord).collect();
                ResponseEnvelope { id, response: Response::SweepChunk { start, records } }
            }
        }))
    }
}

// ---------------------------------------------------------------------------
// The text chunk codec. Retired from the wire in mp-serve/6 (chunks travel as
// frames, see `encode_chunk_frame`); delete `push_number`,
// `encode_chunk_line`, `decode_chunk_line` and `take_hex_field` when ROADMAP
// item 1(a) unpins them — layerbench times the
// two public ones by name. Until then they are the frame codec's test oracle.
// ---------------------------------------------------------------------------

/// Replicate the workspace JSON printer's number formatting exactly (whole
/// numbers as integers, otherwise shortest round-trip), appending without
/// intermediate allocation. Byte-identity with [`encode_line`] is what lets
/// the fast chunk path below coexist with the generic one.
fn push_number(out: &mut String, n: f64) {
    use std::fmt::Write;
    if !n.is_finite() {
        out.push_str("null");
    } else if n == 0.0 {
        out.push_str(if n.is_sign_negative() { "-0.0" } else { "0" });
    } else if n == n.trunc() && n.abs() < 9.007_199_254_740_992e15 {
        let _ = write!(out, "{}", n as i64);
    } else {
        let _ = write!(out, "{n}");
    }
}

/// **Retired from the wire in `mp-serve/6`** (see [`encode_chunk_frame`]);
/// kept, signature unchanged, for layerbench and as the frame codec's test
/// oracle. Delete when ROADMAP item 1(a) unpins it.
///
/// Fast encoder for a sweep chunk as one JSON line, building the text
/// directly instead of materialising the intermediate value
/// tree (which costs ~8 heap allocations *per record* in the workspace's
/// offline serde). Produces **byte-identical** output to
/// `encode_line(&ResponseEnvelope { id, response: Response::SweepChunk {
/// start, records: to_wire(records) } })`; a test pins that equivalence.
pub fn encode_chunk_line(id: u64, start: usize, records: &[EvalRecord]) -> String {
    use std::fmt::Write;
    // ~64 bytes of fixed framing + ~70 bytes per encoded record.
    let mut out = String::with_capacity(80 + records.len() * 72);
    out.push_str("{\"id\":");
    push_number(&mut out, id as f64);
    out.push_str(",\"response\":{\"SweepChunk\":{\"start\":");
    push_number(&mut out, start as f64);
    out.push_str(",\"records\":[");
    for (offset, record) in records.iter().enumerate() {
        if offset > 0 {
            out.push(',');
        }
        out.push('[');
        push_number(&mut out, record.index as f64);
        let _ = write!(
            out,
            ",\"{:016x}\",\"{:016x}\",\"{:016x}\"]",
            record.speedup.to_bits(),
            record.cores.to_bits(),
            record.area.to_bits(),
        );
    }
    out.push_str("]}}}");
    out
}

/// **Retired from the wire in `mp-serve/6`** (see [`ResponseDecoder`]);
/// kept, signature unchanged, for layerbench and as the frame codec's test
/// oracle. Delete when ROADMAP item 1(a) unpins it.
///
/// Fast decoder for lines produced by [`encode_chunk_line`] (or the generic
/// encoder — same bytes). Returns `None` for anything that is not exactly a
/// compact sweep-chunk envelope, in which case the caller falls back to the
/// generic parser; the fast path can therefore never *mis*parse, only
/// decline.
pub fn decode_chunk_line(line: &str) -> Option<ResponseEnvelope> {
    let rest = line.strip_prefix("{\"id\":")?;
    let (id, rest) = take_integer(rest)?;
    let rest = rest.strip_prefix(",\"response\":{\"SweepChunk\":{\"start\":")?;
    let (start, rest) = take_integer(rest)?;
    let mut rest = rest.strip_prefix(",\"records\":[")?;
    let mut records = Vec::new();
    if let Some(closed) = rest.strip_prefix(']') {
        if closed != "}}}" {
            return None;
        }
        return Some(ResponseEnvelope {
            id: id as u64,
            response: Response::SweepChunk { start: start as usize, records },
        });
    }
    loop {
        let body = rest.strip_prefix('[')?;
        let (index, body) = take_integer(body)?;
        let (speedup, body) = take_hex_field(body)?;
        let (cores, body) = take_hex_field(body)?;
        let (area, body) = take_hex_field(body)?;
        let body = body.strip_prefix(']')?;
        records.push(WireRecord(EvalRecord {
            index: index as usize,
            speedup: f64::from_bits(speedup),
            cores: f64::from_bits(cores),
            area: f64::from_bits(area),
        }));
        match body.as_bytes().first()? {
            b',' => rest = &body[1..],
            b']' => {
                if &body[1..] != "}}}" {
                    return None;
                }
                return Some(ResponseEnvelope {
                    id: id as u64,
                    response: Response::SweepChunk { start: start as usize, records },
                });
            }
            _ => return None,
        }
    }
}

/// Parse `,"<16 hex digits>"`.
fn take_hex_field(s: &str) -> Option<(u64, &str)> {
    let rest = s.strip_prefix(",\"")?;
    let bytes = rest.as_bytes();
    if bytes.len() < 17 || bytes[16] != b'"' || !bytes[..16].iter().all(u8::is_ascii_hexdigit) {
        return None;
    }
    Some((u64::from_str_radix(&rest[..16], 16).ok()?, &rest[17..]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_records_round_trip_bitwise_including_nan() {
        let records = [
            EvalRecord { index: 7, speedup: 104.53125, cores: 64.0, area: 4.0 },
            EvalRecord { index: 8, speedup: f64::NAN, cores: 0.5, area: 300.0 },
            EvalRecord { index: 9, speedup: 0.1 + 0.2, cores: 1.0 / 3.0, area: 1e-300 },
        ];
        for record in records {
            let line = encode_line(&WireRecord(record));
            let back: WireRecord = decode_line(&line).unwrap();
            assert_eq!(back.0.index, record.index);
            assert_eq!(back.0.speedup.to_bits(), record.speedup.to_bits());
            assert_eq!(back.0.cores.to_bits(), record.cores.to_bits());
            assert_eq!(back.0.area.to_bits(), record.area.to_bits());
        }
    }

    #[test]
    fn request_envelopes_round_trip() {
        let space = ScenarioSpace::new();
        let requests = vec![
            Request::Ping,
            Request::Stats,
            Request::Metrics,
            Request::Catalogue,
            Request::Shutdown,
            Request::Sweep {
                space: SpaceSpec::Explicit(space.clone()),
                start: 0,
                end: space.len(),
                chunk: 0,
            },
            Request::TopK { space: SpaceSpec::Explicit(space.clone()), k: 5 },
            Request::Pareto { space: SpaceSpec::Explicit(space.clone()), cost: CostAxis::Area },
            Request::Curve { figure: Figure::Fig4 },
            Request::Sweep {
                space: SpaceSpec::Catalogue { ids: vec!["0011223344556677".into()], space },
                start: 0,
                end: 1,
                chunk: 16,
            },
        ];
        for (id, request) in requests.into_iter().enumerate() {
            let envelope = RequestEnvelope { id: id as u64, request };
            let line = encode_line(&envelope);
            let back: RequestEnvelope = decode_line(&line).unwrap();
            assert_eq!(back.id, envelope.id);
            assert_eq!(encode_line(&back), line, "re-encoding must be stable");
        }
    }

    #[test]
    fn responses_round_trip_and_mark_terminality() {
        let chunk = Response::SweepChunk {
            start: 0,
            records: vec![WireRecord(EvalRecord {
                index: 0,
                speedup: 2.0,
                cores: 4.0,
                area: 64.0,
            })],
        };
        assert!(!chunk.is_terminal());
        let done = Response::SweepDone {
            stats: SweepStats {
                scenarios: 1,
                valid: 1,
                cache_misses: 1,
                threads: 1,
                elapsed_seconds: 0.25,
                ..SweepStats::default()
            },
        };
        assert!(done.is_terminal());
        for (id, response) in
            [chunk, done, Response::Error { message: "nope".into() }].into_iter().enumerate()
        {
            let envelope = ResponseEnvelope { id: id as u64, response };
            let line = encode_line(&envelope);
            let back: ResponseEnvelope = decode_line(&line).unwrap();
            assert_eq!(encode_line(&back), line);
        }
    }

    #[test]
    fn metrics_responses_are_terminal_and_round_trip() {
        let metrics = Response::Metrics {
            json: "{\"counters\":{\"requests_total_ping\":1},\"gauges\":{},\"histograms\":{}}"
                .into(),
            prometheus: "# TYPE requests_total_ping counter\nrequests_total_ping 1\n".into(),
        };
        assert!(metrics.is_terminal());
        let line = encode_line(&ResponseEnvelope { id: 4, response: metrics });
        let back: ResponseEnvelope = decode_line(&line).unwrap();
        assert_eq!(encode_line(&back), line);
        let Response::Metrics { json, prometheus } = back.response else {
            panic!("metrics response must survive the round trip");
        };
        assert!(json.contains("requests_total_ping"));
        assert!(prometheus.contains("# TYPE"));
    }

    #[test]
    fn busy_responses_are_terminal_and_round_trip() {
        let busy = Response::Busy { message: "over budget".into(), estimated_cost_ms: 12.5 };
        assert!(busy.is_terminal());
        let line = encode_line(&ResponseEnvelope { id: 9, response: busy });
        let back: ResponseEnvelope = decode_line(&line).unwrap();
        assert_eq!(encode_line(&back), line);
        let Response::Busy { estimated_cost_ms, .. } = back.response else {
            panic!("busy response must survive the round trip");
        };
        assert_eq!(estimated_cost_ms, 12.5);
    }

    #[test]
    fn line_decoder_reassembles_split_lines_and_survives_oversize() {
        let mut decoder = LineDecoder::new(32);
        decoder.push(b"{\"id\":1}\n  \n{\"id");
        assert_eq!(decoder.next_line().unwrap().unwrap(), "{\"id\":1}");
        assert!(decoder.next_line().is_none(), "partial line waits for more bytes");
        decoder.push(b"\":2}\n");
        assert_eq!(decoder.next_line().unwrap().unwrap(), "{\"id\":2}");
        assert!(decoder.next_line().is_none());

        // An oversized line errors once, then the stream resyncs.
        decoder.push(&[b'x'; 40]);
        let err = decoder.next_line().unwrap().unwrap_err();
        assert!(err.contains("32-byte"), "{err}");
        decoder.push(b"tail\n{\"id\":3}\n");
        assert_eq!(decoder.next_line().unwrap().unwrap(), "{\"id\":3}");
        assert!(decoder.buffered() < 16, "consumed bytes are reclaimed");

        // Invalid UTF-8 poisons only its own line.
        decoder.push(&[0xff, 0xfe, b'\n']);
        decoder.push(b"{\"id\":4}\n");
        assert!(decoder.next_line().unwrap().is_err());
        assert_eq!(decoder.next_line().unwrap().unwrap(), "{\"id\":4}");
    }

    #[test]
    fn oversized_lines_are_rejected_regardless_of_read_segmentation() {
        // The whole over-limit line, newline included, in a single push:
        // the cap must hold exactly as it does when the line dribbles in.
        let mut one_shot = LineDecoder::new(32);
        let mut wire = vec![b'a'; 40];
        wire.push(b'\n');
        wire.extend_from_slice(b"{\"id\":1}\n");
        one_shot.push(&wire);
        let rejected = one_shot.next_line().unwrap().unwrap_err();
        assert!(rejected.contains("32-byte"), "{rejected}");
        assert_eq!(one_shot.next_line().unwrap().unwrap(), "{\"id\":1}");

        // A line of exactly the cap still passes.
        let mut at_cap = LineDecoder::new(32);
        at_cap.push(&[b'b'; 32]);
        at_cap.push(b"\n");
        assert_eq!(at_cap.next_line().unwrap().unwrap(), "b".repeat(32));
    }

    #[test]
    fn skipped_oversized_lines_discard_their_continuation_incrementally() {
        // One error for the oversized line, then a newline-free torrent:
        // the buffer must stay bounded the whole way, not wait for the
        // newline to reclaim.
        let mut decoder = LineDecoder::new(64);
        decoder.push(&[b'x'; 100]);
        assert!(decoder.next_line().unwrap().is_err());
        for _ in 0..1000 {
            decoder.push(&[b'y'; 1024]);
            assert!(decoder.next_line().is_none());
            assert!(
                decoder.buffered() <= 2048,
                "skipping mode must not retain bytes: {}",
                decoder.buffered()
            );
        }
        // The eventual newline ends the skip and decoding resumes cleanly.
        decoder.push(b"tail\n{\"id\":5}\n");
        assert_eq!(decoder.next_line().unwrap().unwrap(), "{\"id\":5}");
    }

    /// Bit patterns a decimal or lossy codec would mangle: quiet and
    /// signalling NaNs with payloads, signed zeros, subnormals, infinities —
    /// and words made of `\n` bytes.
    const AWKWARD_BITS: [u64; 12] = [
        0x7ff8_0000_0000_0000, // quiet NaN
        0x7ff8_0000_dead_beef, // quiet NaN with a payload
        0x7ff0_0000_0000_0001, // signalling NaN
        0xfff4_0000_0000_0a0a, // negative signalling NaN with a payload
        0x8000_0000_0000_0000, // -0.0
        0x0000_0000_0000_0000, // +0.0
        0x0000_0000_0000_0001, // smallest subnormal
        0x800f_ffff_ffff_ffff, // largest negative subnormal
        0x7ff0_0000_0000_0000, // +inf
        0xfff0_0000_0000_0000, // -inf
        0x0a0a_0a0a_0a0a_0a0a, // eight newline bytes
        0x405a_2200_0000_0000, // 104.53125, the paper's fig4 peak
    ];

    /// `count` consecutive records from `start` cycling through
    /// [`AWKWARD_BITS`], each field on its own phase.
    fn awkward_records(start: usize, count: usize) -> Vec<EvalRecord> {
        let bits = |i: usize| f64::from_bits(AWKWARD_BITS[i % AWKWARD_BITS.len()]);
        (0..count)
            .map(|i| EvalRecord {
                index: start + i,
                speedup: bits(i),
                cores: bits(i + 5),
                area: bits(i + 10),
            })
            .collect()
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

    fn push_json_line(wire: &mut Vec<u8>, id: u64, response: Response) {
        wire.extend_from_slice(encode_line(&ResponseEnvelope { id, response }).as_bytes());
        wire.push(b'\n');
    }

    /// *frame, JSON line, frame, `SweepDone`* — the stream the splitting and
    /// truncation tests cut up — and the envelopes it must decode to, as
    /// their (bit-exact, hex) generic JSON text.
    fn framed_stream() -> (Vec<u8>, Vec<String>) {
        let (first, second) = (awkward_records(40, 13), awkward_records(53, 5));
        let mut wire = Vec::new();
        encode_chunk_frame(&mut wire, 7, 40, &first);
        push_json_line(&mut wire, 7, Response::Pong { version: "between".into() });
        encode_chunk_frame(&mut wire, 7, 53, &second);
        push_json_line(&mut wire, 7, sweep_done(18));
        let expected = [
            Response::SweepChunk { start: 40, records: to_wire(&first) },
            Response::Pong { version: "between".into() },
            Response::SweepChunk { start: 53, records: to_wire(&second) },
            sweep_done(18),
        ]
        .into_iter()
        .map(|response| encode_line(&ResponseEnvelope { id: 7, response }))
        .collect();
        (wire, expected)
    }

    /// Decode `wire` pushed in the given pieces; every yielded item must be
    /// `Ok`. Returns the envelopes' generic JSON text and the decoder.
    fn decode_pieces<'a>(
        pieces: impl IntoIterator<Item = &'a [u8]>,
    ) -> (Vec<String>, ResponseDecoder) {
        let mut decoder = ResponseDecoder::new();
        let mut decoded = Vec::new();
        for piece in pieces {
            decoder.push(piece);
            for envelope in decoder.by_ref() {
                decoded.push(encode_line(&envelope.expect("a well-formed stream decodes")));
            }
        }
        (decoded, decoder)
    }

    #[test]
    fn chunk_frames_round_trip_every_bit_pattern_and_agree_with_the_text_oracle() {
        for count in [0usize, 1, 12, 8192] {
            let records = awkward_records(1 << 33, count);
            let mut wire = Vec::new();
            encode_chunk_frame(&mut wire, 9, 1 << 33, &records);
            let header = wire.iter().position(|&b| b == b'\n').expect("a header line") + 1;
            assert_eq!(wire.len(), header + count * FRAME_RECORD_BYTES, "24 bytes a record");
            assert!(header < 64, "the header stays small: {header}");

            let mut decoder = ResponseDecoder::new();
            decoder.push(&wire);
            let envelope = decoder.next().expect("a whole frame decodes").unwrap();
            assert!(decoder.next().is_none() && decoder.finish().is_ok());
            assert_eq!(envelope.id, 9);
            let Response::SweepChunk { start, records: got } = &envelope.response else {
                panic!("a frame decodes to a chunk: {envelope:?}");
            };
            assert_eq!((*start, got.len()), (1 << 33, count));
            for (a, b) in got.iter().zip(&records) {
                assert_eq!(a.0.index, b.index);
                assert_eq!(a.0.speedup.to_bits(), b.speedup.to_bits());
                assert_eq!(a.0.cores.to_bits(), b.cores.to_bits());
                assert_eq!(a.0.area.to_bits(), b.area.to_bits());
            }
            // The retired text codec, fed the same input, yields the same
            // envelope (compared through the bit-exact generic encoding).
            let oracle = decode_chunk_line(&encode_chunk_line(9, 1 << 33, &records)).unwrap();
            assert_eq!(encode_line(&envelope), encode_line(&oracle));
        }
    }

    #[test]
    fn framed_streams_decode_identically_however_they_are_split() {
        let (wire, expected) = framed_stream();
        assert!(
            wire.iter().filter(|&&b| b == b'\n').count() > 4 + 8,
            "the payloads must contain newline bytes for this test to mean anything"
        );
        assert_eq!(decode_pieces([&wire[..]]).0, expected, "pushed whole");
        assert_eq!(decode_pieces(wire.chunks(1)).0, expected, "one byte at a time");
        for split in 0..=wire.len() {
            let (decoded, decoder) = decode_pieces([&wire[..split], &wire[split..]]);
            assert_eq!(decoded, expected, "split at {split}");
            assert_eq!(decoder.finish(), Ok(()));
        }
    }

    #[test]
    fn truncated_streams_end_in_a_named_error_never_a_short_chunk() {
        let (wire, expected) = framed_stream();
        // Where each message ends: only there may EOF pass for a clean close.
        let mut boundaries = vec![0];
        let mut probe = ResponseDecoder::new();
        for (offset, byte) in wire.iter().enumerate() {
            probe.push(std::slice::from_ref(byte));
            if probe.next().is_some() {
                boundaries.push(offset + 1);
            }
        }
        assert_eq!(boundaries.len(), 5);
        assert_eq!(boundaries[4], wire.len());

        for cut in 0..=wire.len() {
            let (decoded, decoder) = decode_pieces([&wire[..cut]]);
            let complete = boundaries.iter().filter(|&&b| b != 0 && b <= cut).count();
            assert_eq!(decoded, expected[..complete], "cut at {cut}: only whole messages");
            match decoder.finish() {
                Ok(()) => assert!(boundaries.contains(&cut), "cut at {cut} is inside a message"),
                Err(inside) => {
                    assert!(!boundaries.contains(&cut), "cut at {cut} is between messages");
                    assert!(
                        inside.starts_with("mid-line") || inside.starts_with("mid-frame"),
                        "cut at {cut}: {inside}"
                    );
                }
            }
        }
    }

    #[test]
    fn frame_headers_are_checked_before_they_are_believed() {
        for (header, why) in [
            ("{\"id\":1,\"frame\":{\"start\":0,\"count\":1e300}}", "overflows"),
            ("{\"id\":1,\"frame\":{\"start\":1e300,\"count\":2}}", "overflows"),
            ("{\"id\":1,\"frame\":{\"start\":0}}", "count"),
            ("{\"id\":1,\"frame\":7}", "expected"),
            ("{\"id\":1,\"frame\":{\"start\":0,\"count\":2}", "expected `,` or `}`"),
        ] {
            let mut decoder = ResponseDecoder::new();
            decoder.push(header.as_bytes());
            decoder.push(b"\n");
            decoder.push(&[0u8; 48]);
            let message = decoder.next().expect("a bad header is reported").unwrap_err();
            assert!(
                message.to_lowercase().contains(&why.to_lowercase()),
                "{header}: expected an error about `{why}`, got: {message}"
            );
            // The error is final: where the next message starts is unknown.
            assert_eq!(decoder.next().expect("the error repeats").unwrap_err(), message);
        }
    }

    /// The frame encoder as `mp-serve/6` first shipped it: the header
    /// through the generic JSON printer, then a zero-filled payload
    /// overwritten word by word — the byte oracle for the one-pass encoder.
    fn reference_frame(id: u64, start: usize, records: &[EvalRecord]) -> Vec<u8> {
        let header = FrameHeader { id, frame: FrameSpan { start, count: records.len() } };
        let mut out = encode_line(&header).into_bytes();
        out.push(b'\n');
        let payload = out.len();
        out.resize(payload + records.len() * FRAME_RECORD_BYTES, 0);
        for (slot, record) in out[payload..].chunks_exact_mut(FRAME_RECORD_BYTES).zip(records) {
            slot[..8].copy_from_slice(&record.speedup.to_bits().to_le_bytes());
            slot[8..16].copy_from_slice(&record.cores.to_bits().to_le_bytes());
            slot[16..].copy_from_slice(&record.area.to_bits().to_le_bytes());
        }
        out
    }

    #[test]
    fn chunk_frames_are_byte_identical_to_the_reference_encoder() {
        let exact = EXACT_INTEGERS as usize;
        for (id, start, count) in [
            (1u64, 0usize, 0usize),
            (7, 8192, 8192),
            (EXACT_INTEGERS - 1, exact - 40, 39),
            (EXACT_INTEGERS, 5, 3),
            (u64::MAX, exact, 2),
            (3, usize::MAX - 2, 2),
        ] {
            let records = awkward_records(start, count);
            let mut wire = b"behind earlier bytes".to_vec();
            encode_chunk_frame(&mut wire, id, start, &records);
            assert_eq!(
                &wire[20..],
                &reference_frame(id, start, &records)[..],
                "id {id}, start {start}"
            );
            let header = wire[20..].iter().position(|&b| b == b'\n').unwrap() + 1;
            assert!(header <= MAX_FRAME_HEADER, "{header}-byte header for id {id}");
        }
        // The longest header there is: every number 20 digits.
        let longest =
            FrameHeader { id: u64::MAX, frame: FrameSpan { start: usize::MAX, count: usize::MAX } };
        assert_eq!(encode_line(&longest).len() + 1, MAX_FRAME_HEADER);
    }

    #[test]
    #[should_panic(expected = "consecutive records")]
    fn the_frame_encoder_refuses_a_non_consecutive_slice() {
        let mut records = awkward_records(0, 4);
        records[2].index = 7;
        encode_chunk_frame(&mut Vec::new(), 1, 0, &records);
    }

    #[test]
    fn fast_chunk_codec_is_byte_identical_to_the_generic_path() {
        let records = vec![
            EvalRecord { index: 0, speedup: 104.53125, cores: 64.0, area: 4.0 },
            EvalRecord { index: 1, speedup: f64::NAN, cores: -0.0, area: 1e-300 },
            EvalRecord { index: 2, speedup: 0.1 + 0.2, cores: 1.0 / 3.0, area: f64::INFINITY },
        ];
        for (id, start) in [(1u64, 0usize), (9999, 123_456), (1 << 40, (1 << 40) + 7)] {
            let fast = encode_chunk_line(id, start, &records);
            let generic = encode_line(&ResponseEnvelope {
                id,
                response: Response::SweepChunk { start, records: to_wire(&records) },
            });
            assert_eq!(fast, generic, "fast encoder must match the generic printer");
            // Both decoders agree on both encodings.
            let via_fast = decode_chunk_line(&fast).expect("fast decode accepts its own output");
            assert_eq!(via_fast.id, id);
            let Response::SweepChunk { start: got_start, records: got } = via_fast.response else {
                panic!("fast decode must yield a chunk");
            };
            assert_eq!(got_start, start);
            for (a, b) in from_wire(&got).iter().zip(&records) {
                assert_eq!(a.index, b.index);
                assert_eq!(a.speedup.to_bits(), b.speedup.to_bits(), "NaN-safe compare");
                assert_eq!(a.cores.to_bits(), b.cores.to_bits());
                assert_eq!(a.area.to_bits(), b.area.to_bits());
            }
            let via_generic: ResponseEnvelope = decode_line(&fast).unwrap();
            assert_eq!(encode_line(&via_generic), fast);
        }
        // Empty chunks (never sent, but the shape must still agree).
        let empty_fast = encode_chunk_line(3, 5, &[]);
        let empty_generic = encode_line(&ResponseEnvelope {
            id: 3,
            response: Response::SweepChunk { start: 5, records: Vec::new() },
        });
        assert_eq!(empty_fast, empty_generic);
        assert!(decode_chunk_line(&empty_fast).is_some());
    }

    #[test]
    fn fast_chunk_decoder_declines_everything_else() {
        for line in [
            "",
            "not json",
            "{\"id\":1,\"response\":{\"Pong\":{\"version\":\"x\"}}}",
            "{\"id\":1,\"response\":{\"SweepChunk\":{\"start\":0,\"records\":[[1,\"00\",\"00\",\"00\"]]}}}",
            "{\"id\":1,\"response\":{\"SweepChunk\":{\"start\":0,\"records\":[]}}} trailing",
            "{\"id\":18446744073709551615,\"response\":{\"SweepChunk\":{\"start\":0,\"records\":[]}}}",
        ] {
            assert!(decode_chunk_line(line).is_none(), "must decline: {line}");
        }
    }

    #[test]
    fn malformed_lines_are_rejected() {
        assert!(decode_line::<RequestEnvelope>("not json").is_err());
        assert!(decode_line::<RequestEnvelope>("{\"id\":1}").is_err());
        assert!(decode_line::<WireRecord>("[1,\"zz\",\"00\",\"00\"]").is_err());
    }
}
