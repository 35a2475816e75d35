//! # mp-serve — a resident sweep service
//!
//! The `mp-dse` engine answers one sweep per call; this crate turns it into
//! a **system**: a long-lived service that keeps an engine, its memoisation
//! cache and prepared sweep snapshots resident between queries and answers
//! them over a socket protocol of line-delimited JSON, with streamed sweep
//! chunks as binary frames.
//!
//! * [`service`] — [`SweepService`]: one long-lived
//!   [`Engine`](mp_dse::engine::Engine) + its `EvalCache` behind one
//!   admission gate. Every admitted range is a single `Engine::sweep_range`
//!   on the calling thread, so an answer is **bit-identical** to a direct
//!   `Engine::sweep`, and repeated queries on a backend that memoises hit
//!   the warm cache (analytic and measured recompute instead). Prepared
//!   [`SweepHandle`](mp_dse::engine::SweepHandle)s (space + columnar tables)
//!   are cached by content fingerprint and shared across requests. Every
//!   protocol request has one answerer, [`SweepService::handle`]: a `sweep`
//!   gets an admitted [`SweepTicket`] whose windows are pulled one at a
//!   time, every other verb its one response.
//! * [`protocol`] — the wire types: `sweep` (streamed, chunked, resumable via
//!   index sub-ranges), `top_k`, `pareto`, `curve(figure)`, `stats`,
//!   `catalogue` (fingerprint-keyed calibration addressing), `ping`,
//!   `shutdown`. A streamed chunk carries its records' `f64` bits as they
//!   are (24 bytes a record behind a JSON header line) and `top_k`/`pareto`
//!   records travel as hex bit patterns, so responses are bit-exact down to
//!   the engine's `NaN` markers.
//! * [`server`] — an **event-driven reactor** (serve v2): one epoll event
//!   loop, on the thread that calls [`Server::run`], owns the listener and
//!   every accepted socket (edge-triggered, non-blocking, raw
//!   `epoll`/`eventfd` via [`reactor`]), parses requests
//!   incrementally, **pipelines** (many in-flight requests per connection,
//!   responses strictly in request order) and applies **backpressure**
//!   (a bounded admission gate answering `busy`, plus write-side
//!   watermarks that park a streaming sweep's [`RangeCursor`] until
//!   `EPOLLOUT` drains the outbox — a slow client costs a parked cursor,
//!   not a pinned thread or an unbounded buffer).
//! * [`client`] — a blocking client with an incremental (short-read-proof)
//!   decode path that writes a sweep's frames straight onto its answer,
//!   [`Client::call_pipelined`], and prepared-space queries
//!   (`prepare` once, then address the space by 16-hex id — the protocol's
//!   prepared-statement analogue).
//!
//! [`RangeCursor`]: mp_dse::engine::RangeCursor
//! [`Client::call_pipelined`]: client::Client::call_pipelined
//! [`Server::run`]: server::Server::run
//!
//! ## Quick example (in-process)
//!
//! ```
//! use std::sync::Arc;
//! use mp_serve::prelude::*;
//! use mp_dse::prelude::*;
//!
//! let service = SweepService::new(
//!     Arc::new(AnalyticBackend),
//!     &ServiceConfig { shards: 2, ..ServiceConfig::default() },
//! );
//! let space = ScenarioSpace::new()
//!     .clear_designs()
//!     .add_symmetric_grid((0..64).map(|i| 1.0 + i as f64));
//! let cold = service.sweep(&space, None).unwrap();
//! let again = service.sweep(&space, None).unwrap();
//! // The analytic model recomputes a scenario for less than a cache probe
//! // costs, so it does not memoise: the repeat is recomputed, bit for bit.
//! assert_eq!(again.stats.cache_hits, 0);
//! assert_eq!(cold.records, again.records);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod client;
mod conn;
pub mod jobs;
pub mod planner;
pub mod protocol;
pub mod reactor;
pub mod server;
pub mod service;

/// Commonly used items.
pub mod prelude {
    pub use crate::client::{
        assemble_sweep, collect_sweep, Client, ClientError, RetryOutcome, RetryPolicy,
    };
    pub use crate::jobs::{atomic_write, JobConfig, JobManager, Manifest, MANIFEST_VERSION};
    pub use crate::protocol::{
        decode_chunk_line, decode_line, encode_chunk_frame, encode_chunk_line, encode_line,
        from_wire, to_wire, CatalogueEntry, JobSnapshot, LineDecoder, Request, RequestEnvelope,
        Response, ResponseDecoder, ResponseEnvelope, ServiceStats, SpaceSpec, WireRecord,
        DEFAULT_CHUNK, FRAME_RECORD_BYTES, MAX_FRAME_HEADER, MAX_REQUEST_LINE, PROTOCOL_VERSION,
    };
    pub use crate::server::{Endpoint, Server, ServerConfig, Stream};
    pub use crate::service::{
        Answer, ServeError, ServeErrorKind, ServiceConfig, SweepService, SweepTicket,
    };
}

pub use prelude::*;
