//! Per-connection state of the reactor server: the receive-side incremental
//! parser, the pipelined request queue, the ordered write buffer with its
//! backpressure watermarks, and the parked cursor of an in-flight streaming
//! sweep.
//!
//! The server's one event loop owns every [`Conn`] outright — no locks, no
//! shared mutation. The connection enforces three bounds, which together
//! make its memory footprint independent of how a client (mis)behaves:
//!
//! * **receive**: request lines longer than the protocol cap are rejected
//!   and discarded incrementally (see
//!   [`LineDecoder`](crate::protocol::LineDecoder));
//! * **pipeline**: at most [`MAX_PIPELINE`] parsed-but-unanswered requests
//!   are held; past that the loop simply stops reading the socket, letting
//!   TCP flow control push back on the client;
//! * **send**: response bytes are produced only while the outbox sits below
//!   [`HIGH_WATERMARK`]; a streaming sweep whose client stops draining is
//!   *parked* — its [`SweepTicket`] holds a range cursor, not records — and
//!   re-armed when `EPOLLOUT` drains the outbox below [`LOW_WATERMARK`].

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::sync::Arc;

use crate::protocol::{LineDecoder, MAX_REQUEST_LINE};
use crate::server::{ReactorMetrics, Stream};
use crate::service::SweepTicket;

/// Stop producing response bytes for a connection whose outbox holds at
/// least this much; the overshoot above the watermark is bounded by one
/// sweep window's encoding.
pub(crate) const HIGH_WATERMARK: usize = 256 * 1024;

/// Resume a parked streaming sweep once the outbox drains below this.
pub(crate) const LOW_WATERMARK: usize = 64 * 1024;

/// Parsed requests a connection may have queued or in flight before the
/// loop stops reading its socket (TCP backpressure instead of memory).
pub(crate) const MAX_PIPELINE: usize = 128;

/// Resume reading once the pipeline has drained to this depth.
pub(crate) const RESUME_PIPELINE: usize = MAX_PIPELINE / 2;

/// What the head of a connection's pipeline is currently doing.
pub(crate) enum InFlight {
    /// Nothing dispatched; the next queued line may go to an executor.
    Idle,
    /// An executor owns the head request; `seq` matches its completion.
    Dispatched {
        /// Sequence number the executor's completion must echo.
        seq: u64,
    },
    /// A streaming sweep waiting for the outbox to drain below the low
    /// watermark before its next window is pulled.
    Parked {
        /// Correlation id of the sweep request.
        id: u64,
        /// The resumable sweep: prepared handle + range cursor + statistics.
        ticket: Box<SweepTicket>,
        /// When the sweep's request line was decoded.
        decode_ns: u64,
    },
}

/// One accepted connection, owned by the server's event loop.
pub(crate) struct Conn {
    pub stream: Stream,
    decoder: LineDecoder,
    /// Encoded response bytes not yet accepted by the kernel.
    outbox: Vec<u8>,
    /// Prefix of `outbox` already written.
    written: usize,
    /// Parsed request lines (or receive-side errors to report) awaiting
    /// dispatch, oldest first, each paired with the monotonic-clock
    /// nanosecond at which it left the decoder.
    pub pipeline: VecDeque<(Result<String, String>, u64)>,
    pub inflight: InFlight,
    /// Reading is suspended because the pipeline is full.
    pub read_paused: bool,
    /// The peer closed its sending half; drain the pipeline, then close.
    pub peer_closed: bool,
    /// Close once the outbox drains (set by `shutdown`).
    pub close_after_flush: bool,
    /// This connection's `shutdown` request stops the server once its
    /// acknowledgement has been flushed.
    pub shutdown_origin: bool,
    /// The connection failed (I/O error, protocol-fatal state); remove it.
    pub dead: bool,
    next_seq: u64,
    metrics: Arc<ReactorMetrics>,
}

impl Conn {
    pub fn new(stream: Stream, metrics: Arc<ReactorMetrics>) -> Conn {
        Conn {
            stream,
            decoder: LineDecoder::new(MAX_REQUEST_LINE),
            outbox: Vec::new(),
            written: 0,
            pipeline: VecDeque::new(),
            inflight: InFlight::Idle,
            read_paused: false,
            peer_closed: false,
            close_after_flush: false,
            shutdown_origin: false,
            dead: false,
            next_seq: 1,
            metrics,
        }
    }

    /// The sequence number for the next dispatched job.
    pub fn take_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Read until the socket would block (edge-triggered contract), the peer
    /// closes, or the pipeline fills. Parsed lines land in `pipeline`.
    pub fn fill(&mut self) {
        let mut buf = [0u8; 64 * 1024];
        while !self.read_paused && !self.dead {
            match self.stream.read(&mut buf) {
                Ok(0) => {
                    // An unterminated tail is the connection's last line.
                    self.peer_closed = true;
                    self.decoder.push(b"\n");
                    self.drain_lines();
                    break;
                }
                Ok(n) => {
                    self.decoder.push(&buf[..n]);
                    self.drain_lines();
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.dead = true;
                    break;
                }
            }
        }
    }

    /// Move complete lines out of the decoder; pause reading at the
    /// pipeline cap (the bytes already read are kept — the cap limits
    /// further reads, it never drops input).
    fn drain_lines(&mut self) {
        while let Some(line) = self.decoder.next_line() {
            self.pipeline.push_back((line, mp_obs::monotonic_ns()));
        }
        if self.pipeline.len() >= MAX_PIPELINE && !self.read_paused {
            self.read_paused = true;
            self.metrics.read_pauses.inc();
        }
    }

    /// Whether reading should resume (pipeline drained past the hysteresis
    /// threshold).
    pub fn should_resume_read(&self) -> bool {
        self.read_paused
            && !self.peer_closed
            && !self.dead
            && self.pipeline.len() <= RESUME_PIPELINE
    }

    /// Queue encoded response bytes for writing. With nothing pending they
    /// become the outbox — a move, not a copy; otherwise they go behind the
    /// unsent bytes.
    pub fn enqueue(&mut self, bytes: Vec<u8>) {
        let before = self.pending_out();
        if before == 0 {
            self.outbox = bytes;
            self.written = 0;
        } else {
            self.outbox.extend_from_slice(&bytes);
        }
        if before < HIGH_WATERMARK && self.pending_out() >= HIGH_WATERMARK {
            self.metrics.outbox_high_water.inc();
        }
    }

    /// Response bytes not yet accepted by the kernel.
    pub fn pending_out(&self) -> usize {
        self.outbox.len() - self.written
    }

    /// Write until the kernel would block or the outbox is empty. Errors
    /// mark the connection dead (a vanished reader is that client's problem,
    /// never the server's).
    pub fn flush_out(&mut self) {
        while self.written < self.outbox.len() {
            match self.stream.write(&self.outbox[self.written..]) {
                Ok(0) => {
                    self.dead = true;
                    break;
                }
                Ok(n) => self.written += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.dead = true;
                    break;
                }
            }
        }
        if self.written == self.outbox.len() {
            self.outbox.clear();
            self.written = 0;
            // A burst (one parked sweep's worth of chunks) must not pin its
            // high-water allocation for the connection's lifetime.
            if self.outbox.capacity() > 2 * HIGH_WATERMARK {
                self.outbox.shrink_to(HIGH_WATERMARK);
            }
        } else if self.written > HIGH_WATERMARK {
            self.outbox.drain(..self.written);
            self.written = 0;
        }
    }

    /// Whether this connection has fully finished: nothing queued, nothing
    /// in flight, nothing left to write, and no more input coming.
    pub fn drained(&self) -> bool {
        self.peer_closed
            && self.pipeline.is_empty()
            && matches!(self.inflight, InFlight::Idle)
            && self.pending_out() == 0
            && self.decoder.buffered() == 0
    }
}
