//! The resident sweep service: one engine behind a query planner.
//!
//! A [`SweepService`] owns **one** long-lived [`Engine`] — one fork-join
//! team, one memoisation cache — and answers every admitted range with a
//! single engine call on the calling thread. The engine's batch queue is
//! the only scheduler: the caller or a free engine worker takes the next batch.
//! For a sweep ([`Engine::sweep_range`]) every worker writes its own
//! disjoint slice of one preallocated record vector, and that vector *is*
//! the answer — no partial results, no merge, no copy. A served answer is
//! therefore **bit-identical** to a direct [`Engine::sweep`] over the same
//! space by construction: every scenario's value is a deterministic function
//! of the scenario and backend alone, independent of batch boundaries and of
//! which thread evaluated it.
//!
//! `top_k` and `pareto` want a handful of records back, so they never build
//! that vector: [`Engine::reduce_range`] folds each batch into a per-worker
//! [`TopK`] or [`Pareto`] partial and merges the partials, and the
//! service's memory for them does not grow with the space. The reducers are
//! exact folds under a total order, so the answer is bit-identical to the
//! sort-based [`mp_dse::analysis::top_k`] / [`mp_dse::analysis::pareto_frontier`]
//! over a direct sweep.
//!
//! Between the callers and the engine sits the **query planner**
//! ([`crate::planner`]): concurrent queries over the same prepared space
//! and range **coalesce** onto one in-flight evaluation whose result fans
//! back out per subscriber (byte-identical to an uncoalesced run, follower
//! stats marked [`SweepStats::coalesced`]), and admission is **cost-based**
//! — the service budgets the *estimated evaluation cost* of its admitted,
//! unfinished work (calibrated from the engine's live metrics) and rejects,
//! retryably and with the estimate attached, what would blow the budget.
//! Every evaluation runs on its caller's thread (an executor, or the job
//! runner), so the work in flight is already bounded by the callers.
//!
//! Prepared sweeps ([`SweepHandle`]: the space plus its columnar
//! [`SpaceTables`]) are cached by content fingerprint and shared across
//! requests — racing first queries over the same new space share one table
//! build — so a repeated query pays neither the table precomputation nor —
//! for a backend that memoises ([`EvalBackend::memoise`]), thanks to the
//! engine's cache — the evaluation. The analytic and measured backends
//! recompute a repeated query for less than answering it from the cache
//! would cost.
//!
//! Every protocol request has one answerer, [`SweepService::handle`]: it
//! counts the request, and answers a `sweep` with an admitted
//! [`SweepTicket`] ([`Answer::Sweep`]) and everything else with one
//! [`Response`] ([`Answer::Response`]). The socket server pulls a ticket's
//! windows and frames them; an in-process caller pulls them the same way.
//!
//! [`SpaceTables`]: mp_dse::tables::SpaceTables

use std::collections::HashMap;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use mp_obs::metrics::{Counter, Gauge, Registry};
use mp_obs::profile::thread_lane;
use parking_lot::Mutex;

use mp_dse::analysis::{Pareto, TopK};
use mp_dse::backend::EvalBackend;
use mp_dse::engine::{
    Engine, EvalRecord, RangeCursor, Reducer, SweepConfig, SweepHandle, SweepResult, SweepStats,
};
use mp_dse::scenario::ScenarioSpace;
use mp_model::catalogue::CatalogueRegistry;
use mp_model::explore::figure_curves;

use crate::planner::{CostModel, PlanKey, Query, Role, SingleFlight};
use crate::protocol::{
    to_wire, CatalogueEntry, Request, Response, ServiceStats, SpaceSpec, DEFAULT_CHUNK,
    PROTOCOL_VERSION,
};

/// The service's series and its planner's (README's metrics catalogue),
/// registered into its engine's registry when the service is built.
struct ServiceMetrics {
    queue_depth: Arc<Gauge>,
    coalesced_requests: Arc<Counter>,
    shared_scenarios: Arc<Counter>,
    cost_rejections: Arc<Counter>,
    /// `requests_total_<verb>`, registered at a verb's first request into the
    /// first free slot (16 for the 14 verbs), so counting takes no lock.
    requests: [OnceLock<(&'static str, Arc<Counter>)>; 16],
}

/// Construction knobs of a [`SweepService`].
#[derive(Debug, Clone, Copy)]
pub struct ServiceConfig {
    /// With [`ServiceConfig::threads_per_shard`], sizes the service's one
    /// engine: it runs `shards × threads_per_shard` sweep threads. Also the
    /// input of the server's executor auto-sizing. Must be ≥ 1.
    pub shards: usize,
    /// The other factor of the engine's thread count. Must be ≥ 1.
    pub threads_per_shard: usize,
    /// Cost-based admission budget: the estimated evaluation cost (ms) the
    /// service's admitted, unfinished work may reach before further queries
    /// are rejected with a retryable [`Response::Busy`] carrying the
    /// estimate. A query is always admitted onto an idle service regardless
    /// of its size. Must be positive.
    pub cost_budget_ms: f64,
    /// Pin the cost model's per-scenario cost (ms) instead of calibrating
    /// from the engine's live `dse_batch_ms` / `dse_scenarios_evaluated`
    /// metrics — deterministic admission for tests and benches.
    pub cost_per_scenario_ms: Option<f64>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            shards: 1,
            threads_per_shard: 1,
            cost_budget_ms: 30_000.0,
            cost_per_scenario_ms: None,
        }
    }
}

/// What kind of failure a [`ServeError`] is — the wire protocol reports the
/// two differently ([`Response::Busy`] is retryable, [`Response::Error`] is
/// not).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeErrorKind {
    /// The request itself is unanswerable (bad range, unknown catalogue id,
    /// a backend that panicked).
    Invalid,
    /// The service's admission gate is closed; the request was not executed
    /// and may be retried.
    Busy,
}

/// Error produced by a service query.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeError {
    /// Whether the failure is retryable.
    pub kind: ServeErrorKind,
    /// Human-readable reason.
    pub message: String,
    /// The planner's estimated evaluation cost of the rejected query,
    /// milliseconds (`0.0` when the rejection was not cost-informed —
    /// invalid requests, failed evaluations).
    pub estimated_cost_ms: f64,
}

impl ServeError {
    /// Whether this is an admission rejection (retryable).
    pub fn is_busy(&self) -> bool {
        self.kind == ServeErrorKind::Busy
    }

    /// The terminal wire response reporting this error.
    pub fn into_response(self) -> Response {
        match self.kind {
            ServeErrorKind::Busy => {
                Response::Busy { message: self.message, estimated_cost_ms: self.estimated_cost_ms }
            }
            ServeErrorKind::Invalid => Response::Error { message: self.message },
        }
    }
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for ServeError {}

fn err(message: impl Into<String>) -> ServeError {
    ServeError { kind: ServeErrorKind::Invalid, message: message.into(), estimated_cost_ms: 0.0 }
}

/// Best-effort human-readable reason from a caught panic payload.
fn panic_reason(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "backend panicked".to_string()
    }
}

fn busy(message: impl Into<String>, estimated_cost_ms: f64) -> ServeError {
    ServeError { kind: ServeErrorKind::Busy, message: message.into(), estimated_cost_ms }
}

/// Maximum prepared sweep snapshots kept resident. The cache key (the query
/// space) is client-controlled, so without a cap a client iterating distinct
/// spaces would grow the service's memory without bound; beyond the cap the
/// least-recently-used snapshot is evicted (in-flight sweeps keep theirs
/// alive through their `Arc`).
const MAX_PREPARED: usize = 32;

/// File name of the cache spill inside a durable-job store.
const CACHE_SEGMENT: &str = "cache.seg";

/// The prepared-handle cache: fingerprint-keyed, LRU-bounded.
#[derive(Default)]
struct PreparedCache {
    handles: HashMap<u64, Arc<SweepHandle<'static>>>,
    /// Keys in use order, least recently used first.
    order: Vec<u64>,
}

impl PreparedCache {
    fn touch(&mut self, key: u64) {
        self.order.retain(|&k| k != key);
        self.order.push(key);
    }

    fn insert(&mut self, key: u64, handle: Arc<SweepHandle<'static>>) {
        self.handles.insert(key, handle);
        self.touch(key);
        while self.handles.len() > MAX_PREPARED {
            let evict = self.order.remove(0);
            self.handles.remove(&evict);
        }
    }
}

/// The resident sweep service. See the module docs.
pub struct SweepService {
    backend: Arc<dyn EvalBackend + Send + Sync>,
    /// The one engine every query evaluates on.
    engine: Engine,
    /// [`ServiceConfig::shards`] as configured (see [`SweepService::shards`]).
    shards: usize,
    /// Estimated evaluation cost of the evaluations admitted and not yet
    /// finished, microseconds — what the admission gate budgets.
    pending_cost_us: AtomicU64,
    prepared: Mutex<PreparedCache>,
    /// In-flight table builds, so racing first queries over the same new
    /// space share one [`SpaceTables`] construction.
    ///
    /// [`SpaceTables`]: mp_dse::tables::SpaceTables
    builds: SingleFlight<u64, Arc<SweepHandle<'static>>>,
    /// The planner's in-flight coalescing table.
    coalescer: SingleFlight<PlanKey, Result<Arc<SweepResult>, ServeError>>,
    cost_model: CostModel,
    metrics: ServiceMetrics,
    catalogue: CatalogueRegistry,
    sweep_config: SweepConfig,
    cost_budget_ms: f64,
    queries: AtomicU64,
    started: Instant,
    /// The durable-job manager, when one is attached
    /// ([`crate::jobs::JobManager::new`]). Weak: the manager owns the
    /// service (its runner sweeps through it), never the other way around,
    /// so tearing down is cycle-free.
    jobs: OnceLock<std::sync::Weak<crate::jobs::JobManager>>,
}

impl std::fmt::Debug for SweepService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SweepService")
            .field("backend", &self.backend.name())
            .field("threads", &self.engine.threads())
            .finish()
    }
}

impl SweepService {
    /// Start a service evaluating with `backend` on one engine of
    /// `shards × threads_per_shard` sweep threads.
    pub fn new(backend: Arc<dyn EvalBackend + Send + Sync>, config: &ServiceConfig) -> Self {
        assert!(config.shards > 0, "service needs at least one shard");
        assert!(config.threads_per_shard > 0, "service needs at least one thread per shard");
        assert!(config.cost_budget_ms > 0.0, "cost budget must be positive");
        // Memoising is the backend's call. The engine asks the backend per
        // sweep too; holding the answer here is what gates the service's own
        // cache traffic (per-ticket `reserve`, segment spill and warm-start;
        // see `memoises`).
        let sweep_config = SweepConfig { use_cache: backend.memoise(), ..SweepConfig::default() };
        let engine = Engine::new(config.shards * config.threads_per_shard);
        let registry = engine.registry();
        SweepService {
            backend,
            cost_model: CostModel::new(config.cost_per_scenario_ms, engine.metrics()),
            metrics: ServiceMetrics {
                queue_depth: registry.gauge("executor_queue_depth"),
                coalesced_requests: registry.counter("planner_coalesced_requests"),
                shared_scenarios: registry.counter("planner_shared_scenarios"),
                cost_rejections: registry.counter("planner_cost_rejections"),
                requests: Default::default(),
            },
            engine,
            shards: config.shards,
            pending_cost_us: AtomicU64::new(0),
            prepared: Mutex::new(PreparedCache::default()),
            builds: SingleFlight::default(),
            coalescer: SingleFlight::default(),
            catalogue: CatalogueRegistry::new(),
            sweep_config,
            cost_budget_ms: config.cost_budget_ms,
            queries: AtomicU64::new(0),
            started: Instant::now(),
            jobs: OnceLock::new(),
        }
    }

    /// Attach a durable-job manager (called once by
    /// [`crate::jobs::JobManager::new`]): the four `job_*` protocol verbs
    /// dispatch to it. A service without one answers them with an error.
    pub(crate) fn attach_jobs(&self, manager: std::sync::Weak<crate::jobs::JobManager>) {
        let _ = self.jobs.set(manager);
    }

    /// The attached job manager, if one is alive.
    pub fn jobs(&self) -> Option<Arc<crate::jobs::JobManager>> {
        self.jobs.get().and_then(std::sync::Weak::upgrade)
    }

    /// Spill the engine's [`EvalCache`] to `dir` as one binary segment file
    /// (`cache.seg`), written atomically (tmp file + fsync + rename).
    /// Returns the number of entries spilled. Part of a durable job's
    /// checkpoint; also callable on its own for an orderly shutdown. A
    /// service that does not [memoise](SweepService::memoises) has nothing
    /// to spill: no file is written and the count is `0` — resuming its
    /// jobs recomputes the incomplete windows.
    ///
    /// [`EvalCache`]: mp_dse::cache::EvalCache
    pub fn save_cache_segments(&self, dir: &Path) -> std::io::Result<usize> {
        if !self.memoises() {
            return Ok(0);
        }
        std::fs::create_dir_all(dir)?;
        let cache = self.engine.cache();
        crate::jobs::atomic_write(&dir.join(CACHE_SEGMENT), &cache.save_segment())?;
        Ok(cache.len())
    }

    /// Warm-start the cache from the segment file (`cache.seg`) a previous
    /// process spilled to `dir`.
    ///
    /// Returns the number of entries restored. A corrupt, truncated or
    /// version-stale segment is **skipped with a warning** — a damaged
    /// spill degrades to a cold cache, it never aborts startup. A service
    /// that does not memoise reads nothing and restores `0`.
    pub fn load_cache_segments(&self, dir: &Path) -> usize {
        if !self.memoises() {
            return 0;
        }
        let path = dir.join(CACHE_SEGMENT);
        let Ok(bytes) = std::fs::read(&path) else { return 0 };
        self.engine.cache().load_segment(&bytes).unwrap_or_else(|e| {
            self.registry().warn(
                "jobs",
                &format!("skipping cache segment {} (cold start): {e}", path.display()),
            );
            0
        })
    }

    /// Attach a calibration catalogue (what [`SpaceSpec::Catalogue`] resolves
    /// against and [`Request::Catalogue`] lists).
    pub fn with_catalogue(mut self, catalogue: CatalogueRegistry) -> Self {
        self.catalogue = catalogue;
        self
    }

    /// The service's metrics registry (its engine's), which its planner,
    /// server and job manager register into too: what `stats` and `metrics`
    /// snapshot.
    pub fn registry(&self) -> &Registry {
        self.engine.registry()
    }

    /// Whether the service's sweeps go through the engine's cache: whether
    /// its backend memoises ([`EvalBackend::memoise`]).
    pub fn memoises(&self) -> bool {
        self.sweep_config.use_cache
    }

    /// [`ServiceConfig::shards`] as configured — what the server's executor
    /// auto-sizing reads. The engine runs `shards × threads_per_shard`
    /// threads.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Resolve a wire-level space spec into a prepared sweep handle — the
    /// form every query path consumes. [`SpaceSpec::Prepared`] ids hit the
    /// handle cache directly (no parse, clone or fingerprint work);
    /// everything else resolves to a space and goes through the prepared
    /// handle cache.
    pub fn resolve_handle(
        &self,
        spec: &SpaceSpec,
    ) -> Result<Arc<SweepHandle<'static>>, ServeError> {
        match spec {
            SpaceSpec::Prepared { id } => self.lookup_prepared(id),
            SpaceSpec::Explicit(space) => self.prepared(space),
            SpaceSpec::Catalogue { .. } => self.prepared(&self.resolve_space(spec)?),
        }
    }

    /// Register a space and return its prepared id plus scenario count
    /// (the [`Request::Prepare`] implementation).
    pub fn prepare_spec(&self, spec: &SpaceSpec) -> Result<(String, usize), ServeError> {
        let handle = self.resolve_handle(spec)?;
        let id = CatalogueRegistry::format_id(space_fingerprint(handle.space()));
        Ok((id, handle.len()))
    }

    /// Look a prepared id up in the handle cache.
    fn lookup_prepared(&self, id: &str) -> Result<Arc<SweepHandle<'static>>, ServeError> {
        let key = CatalogueRegistry::parse_id(id)
            .ok_or_else(|| err(format!("malformed prepared-space id `{id}`")))?;
        let mut prepared = self.prepared.lock();
        match prepared.handles.get(&key) {
            Some(handle) => {
                let handle = Arc::clone(handle);
                prepared.touch(key);
                Ok(handle)
            }
            None => Err(err(format!(
                "unknown prepared-space id `{id}` (expired from the LRU cache? re-prepare)"
            ))),
        }
    }

    /// Resolve a wire-level space spec into a concrete space.
    pub fn resolve_space(&self, spec: &SpaceSpec) -> Result<ScenarioSpace, ServeError> {
        match spec {
            SpaceSpec::Explicit(space) => Ok(space.clone()),
            SpaceSpec::Prepared { id } => Ok(self.lookup_prepared(id)?.space().clone()),
            SpaceSpec::Catalogue { ids, space } => {
                if ids.is_empty() {
                    return Err(err("catalogue space needs at least one id"));
                }
                let mut apps = Vec::with_capacity(ids.len());
                for id in ids {
                    let parsed = CatalogueRegistry::parse_id(id)
                        .ok_or_else(|| err(format!("malformed catalogue id `{id}`")))?;
                    let calibration = self
                        .catalogue
                        .get(parsed)
                        .ok_or_else(|| err(format!("unknown catalogue id `{id}`")))?;
                    apps.push(calibration.app_params().clone());
                }
                Ok(space.clone().with_apps(apps))
            }
        }
    }

    /// The prepared (tables-built) handle for `space`, shared across
    /// requests and LRU-bounded to [`MAX_PREPARED`] snapshots. Keyed by
    /// content fingerprint; an (astronomically unlikely) fingerprint
    /// collision falls back to a fresh uncached handle rather than
    /// answering for the wrong space.
    ///
    /// The cache mutex is held only for the lookup and the insert, never
    /// while the [`SpaceTables`] are built — a first query over a large new
    /// space must not head-of-line-block queries over already-prepared
    /// spaces. Clients racing on the same new space share **one** build
    /// through a [`SingleFlight`] table: the first becomes the build
    /// leader, the rest block for its handle instead of redundantly
    /// deriving the same columns.
    ///
    /// A space with a budget that is not finite and positive is refused
    /// before anything is built.
    ///
    /// [`SpaceTables`]: mp_dse::tables::SpaceTables
    fn prepared(&self, space: &ScenarioSpace) -> Result<Arc<SweepHandle<'static>>, ServeError> {
        check_budgets(space)?;
        let key = space_fingerprint(space);
        {
            let mut prepared = self.prepared.lock();
            if let Some(handle) = prepared.handles.get(&key) {
                if handle.space() == space {
                    let handle = Arc::clone(handle);
                    prepared.touch(key);
                    return Ok(handle);
                }
                return Ok(self.build_handle(space));
            }
        }
        Ok(match self.builds.join(key) {
            Role::Leader => {
                let handle = self.build_handle(space);
                {
                    let mut prepared = self.prepared.lock();
                    match prepared.handles.get(&key) {
                        // A fingerprint collision landed while we built:
                        // leave the existing snapshot alone, keep ours
                        // uncached.
                        Some(existing) if existing.space() != space => {}
                        _ => prepared.insert(key, Arc::clone(&handle)),
                    }
                }
                self.builds.publish(&key, Arc::clone(&handle));
                handle
            }
            Role::Follower(build) => {
                let handle = build.wait();
                if handle.space() == space {
                    handle
                } else {
                    // Fingerprint collision with the leader's space: build
                    // a fresh uncached handle rather than answer for the
                    // wrong space.
                    self.build_handle(space)
                }
            }
        })
    }

    /// Build the handle for `space`, timed on the engine's `dse_table_build_ms`
    /// and under its `table_build` span.
    fn build_handle(&self, space: &ScenarioSpace) -> Arc<SweepHandle<'static>> {
        Arc::new(self.engine.build_handle(space.len(), || SweepHandle::owned(space.clone())))
    }

    /// Evaluate `range` of `space` (`None` = the whole space), returning
    /// records in index order plus the engine's stats. Subject to admission
    /// control ([`ServiceConfig::cost_budget_ms`]): a query the gate refuses
    /// is rejected with a retryable busy error instead of queued.
    pub fn sweep(
        &self,
        space: &ScenarioSpace,
        range: Option<Range<usize>>,
    ) -> Result<SweepResult, ServeError> {
        self.sweep_handle(&self.prepared(space)?, range)
    }

    /// [`SweepService::sweep`] over an already-prepared handle (what the
    /// wire paths use — a [`SpaceSpec::Prepared`] query never touches the
    /// space itself).
    pub fn sweep_handle(
        &self,
        handle: &Arc<SweepHandle<'static>>,
        range: Option<Range<usize>>,
    ) -> Result<SweepResult, ServeError> {
        self.query(handle, range, Query::Records)
    }

    /// Validate, count and admit one query over `range` of a prepared
    /// handle (`None` = the whole space), then evaluate it.
    fn query(
        &self,
        handle: &Arc<SweepHandle<'static>>,
        range: Option<Range<usize>>,
        query: Query,
    ) -> Result<SweepResult, ServeError> {
        let n = handle.len();
        let range = range.unwrap_or(0..n);
        check_range(&range, n)?;
        self.queries.fetch_add(1, Ordering::Relaxed);
        self.admit(&range)?;
        self.evaluate(handle, range, query)
    }

    /// The admission gate, checked once per *query* — the windows of an
    /// admitted streaming sweep are never rejected mid-answer, they just
    /// share the engine with other admitted work. The estimated evaluation
    /// cost of the service's admitted, unfinished work plus this query must
    /// stay within [`ServiceConfig::cost_budget_ms`]: a giant sweep cannot
    /// bury a backlog that hundreds of cheap warm queries would sail
    /// through, and cheap queries keep being admitted by *cost* where a raw
    /// count of queries would treat them like giants. An idle (zero-pending)
    /// service admits anything: budgets bound *waiting* work, they must not
    /// make oversized queries unanswerable.
    ///
    /// Rejections are retryable ([`Response::Busy`]) and carry the query's
    /// estimated cost.
    fn admit(&self, range: &Range<usize>) -> Result<(), ServeError> {
        let query_cost_ms = self.cost_model.estimate_ms(range.len());
        let pending_ms = self.pending_cost_us.load(Ordering::Acquire) as f64 / 1e3;
        if pending_ms > 0.0 && pending_ms + query_cost_ms > self.cost_budget_ms {
            self.metrics.cost_rejections.inc();
            return Err(busy(
                format!(
                    "the service's estimated backlog {pending_ms:.1} ms + this query's \
                     {query_cost_ms:.1} ms exceeds the {:.0} ms admission budget",
                    self.cost_budget_ms
                ),
                query_cost_ms,
            ));
        }
        Ok(())
    }

    /// The planner's evaluation entry point: every query path (one-shot
    /// sweeps, streaming windows, analysis queries) funnels its admitted,
    /// validated ranges through here. Concurrent calls with the same
    /// `(prepared-space fingerprint, range, query)` key share one
    /// evaluation: the first becomes the leader and evaluates, the rest
    /// block and receive the published result — records bit-identical,
    /// follower stats marked [`SweepStats::coalesced`] so the shared work is
    /// counted once by aggregators but still reported to every subscriber.
    fn evaluate(
        &self,
        handle: &Arc<SweepHandle<'static>>,
        range: Range<usize>,
        query: Query,
    ) -> Result<SweepResult, ServeError> {
        if range.is_empty() {
            return self.evaluate_on_engine(handle, range, query);
        }
        let key = PlanKey {
            fingerprint: handle.fingerprint(),
            start: range.start,
            end: range.end,
            query,
        };
        match self.coalescer.join(key) {
            Role::Leader => {
                let result = self.evaluate_on_engine(handle, range, query).map(Arc::new);
                self.coalescer.publish(&key, result.clone());
                // No follower joined: the published Arc is already dropped
                // and the result is returned without a copy.
                result.map(|shared| match Arc::try_unwrap(shared) {
                    Ok(owned) => owned,
                    Err(shared) => SweepResult::clone(&shared),
                })
            }
            Role::Follower(inflight) => {
                self.metrics.coalesced_requests.inc();
                self.metrics.shared_scenarios.add(range.len() as u64);
                let shared = inflight.wait()?;
                let mut result = SweepResult::clone(&shared);
                result.stats.coalesced = true;
                Ok(result)
            }
        }
    }

    /// The evaluation core, on the calling thread, bracketed by the
    /// admission gauges: [`Query::Records`] is one [`Engine::sweep_range`],
    /// whose record vector is returned as is; a reduction is one
    /// [`Engine::reduce_range`], whose few records are the answer. A
    /// backend panic is contained to this query — the engine has already
    /// joined its workers when it re-raises, and whatever the panicking
    /// sweep cached is deterministic, so a retry re-reads it warm. No
    /// admission check — callers gate first.
    fn evaluate_on_engine(
        &self,
        handle: &SweepHandle<'static>,
        range: Range<usize>,
        query: Query,
    ) -> Result<SweepResult, ServeError> {
        let cost_us = (self.cost_model.estimate_ms(range.len()) * 1e3) as u64;
        self.pending_cost_us.fetch_add(cost_us, Ordering::AcqRel);
        self.metrics.queue_depth.add(1);
        let result = catch_unwind(AssertUnwindSafe(|| {
            let (engine, backend, config) =
                (&self.engine, self.backend.as_ref(), &self.sweep_config);
            let range = range.clone();
            match query {
                Query::Records => engine.sweep_range(handle, backend, config, range),
                Query::TopK(k) => {
                    // The buffer never outgrows the range, whatever `k` the
                    // wire carried.
                    let top = TopK::new(k.min(range.len()));
                    let (top, stats) = engine.reduce_range(handle, backend, config, range, top);
                    SweepResult { records: top.finish(), stats }
                }
                Query::Pareto(cost) => {
                    let pareto = Pareto::new(handle.space(), cost);
                    let (pareto, stats) =
                        engine.reduce_range(handle, backend, config, range, pareto);
                    SweepResult { records: pareto.finish(), stats }
                }
            }
        }));
        self.metrics.queue_depth.sub(1);
        self.pending_cost_us.fetch_sub(cost_us, Ordering::Release);
        result.map_err(|payload| {
            let reason = panic_reason(payload.as_ref());
            self.registry()
                .warn("serve", &format!("sweep {}..{} panicked: {reason}", range.start, range.end));
            err(format!("sweep evaluation failed: {reason}"))
        })
    }

    /// Open a **pull-based** streaming sweep over `range` of `space`:
    /// validates and admits the query once, prepares (or reuses) the
    /// [`SweepHandle`], and returns a [`SweepTicket`] whose windows are
    /// computed only when [`SweepService::next_window`] pulls them — nothing
    /// is evaluated or buffered for a consumer that has stopped draining.
    /// `chunk` is the response chunk size, at most [`DEFAULT_CHUNK`] (`0`
    /// and anything larger mean [`DEFAULT_CHUNK`]); windows are
    /// chunk-aligned so streamed chunk boundaries are identical to a
    /// one-shot sweep's.
    pub fn begin_sweep(
        &self,
        space: &ScenarioSpace,
        range: Range<usize>,
        chunk: usize,
    ) -> Result<SweepTicket, ServeError> {
        self.begin_sweep_handle(self.prepared(space)?, range, chunk)
    }

    /// [`SweepService::begin_sweep`] over an already-prepared handle.
    pub fn begin_sweep_handle(
        &self,
        handle: Arc<SweepHandle<'static>>,
        range: Range<usize>,
        chunk: usize,
    ) -> Result<SweepTicket, ServeError> {
        check_range(&range, handle.len())?;
        self.queries.fetch_add(1, Ordering::Relaxed);
        self.admit(&range)?;
        // Size the cache for the whole sweep up front — exactly what a
        // one-shot `Engine::sweep` does — so the window-by-window inserts
        // never rehash (and transiently double) a table mid-stream.
        if self.memoises() {
            self.engine.cache().reserve(range.len());
        }
        // A window is evaluated and framed whole, so the chunk cap is what
        // bounds an answer's memory at one window, whatever the client sent.
        let chunk = if chunk == 0 { DEFAULT_CHUNK } else { chunk.min(DEFAULT_CHUNK) };
        // Pull windows of at most DEFAULT_CHUNK scenarios, a whole number
        // of response chunks so boundaries stay aligned.
        let window = DEFAULT_CHUNK / chunk * chunk;
        let cursor = handle.cursor(range, window);
        Ok(SweepTicket {
            handle,
            cursor,
            chunk,
            stats: SweepStats::default(),
            started: Instant::now(),
            first_window: true,
        })
    }

    /// Pull the next window of an open streaming sweep: evaluates it and
    /// returns its records (global indices, index order), or `None` once
    /// the ticket's range is exhausted — read the final summed statistics
    /// from [`SweepTicket::stats`] then.
    pub fn next_window(
        &self,
        ticket: &mut SweepTicket,
    ) -> Result<Option<Vec<EvalRecord>>, ServeError> {
        let Some(window) = ticket.cursor.next_window() else {
            return Ok(None);
        };
        let profiler = self.registry().profiler();
        let _span = profiler.is_enabled().then(|| {
            profiler.span(
                &format!("window {}..{}", window.start, window.end),
                "serve",
                thread_lane(),
            )
        });
        let result = self.evaluate(&ticket.handle, window, Query::Records)?;
        ticket.stats.scenarios += result.stats.scenarios;
        ticket.stats.valid += result.stats.valid;
        ticket.stats.cache_hits += result.stats.cache_hits;
        ticket.stats.cache_misses += result.stats.cache_misses;
        // Later windows see the entries the earlier ones just inserted; only
        // the first window's count is the sweep's true warm-start budget.
        if ticket.first_window {
            ticket.stats.warm_entries = result.stats.warm_entries;
            ticket.first_window = false;
        }
        ticket.stats.threads = ticket.stats.threads.max(result.stats.threads);
        ticket.stats.coalesced |= result.stats.coalesced;
        ticket.stats.elapsed_seconds = ticket.started.elapsed().as_secs_f64();
        Ok(Some(result.records))
    }

    /// Aggregate service statistics.
    pub fn stats(&self) -> ServiceStats {
        ServiceStats {
            backend: self.backend.name().to_string(),
            threads: self.engine.threads(),
            cache: self.engine.cache().stats(),
            queries: self.queries.load(Ordering::Relaxed),
            prepared_spaces: self.prepared.lock().handles.len(),
            uptime_seconds: self.started.elapsed().as_secs_f64(),
            metrics: self.registry().snapshot().to_json(),
        }
    }

    /// The calibration catalogue in wire form.
    pub fn catalogue_entries(&self) -> Vec<CatalogueEntry> {
        self.catalogue
            .entries()
            .iter()
            .map(|calibration| CatalogueEntry {
                id: CatalogueRegistry::format_id(calibration.fingerprint()),
                name: calibration.app_params().name.clone(),
                growth: calibration.growth().label(),
                f: calibration.app_params().f,
                fit_rmse: calibration.fit_rmse(),
            })
            .collect()
    }

    /// Answer one protocol request — the one dispatch every request goes
    /// through, counted once on its `requests_total_<verb>` series. A
    /// `sweep` is resolved and admitted here and answered with its
    /// [`SweepTicket`]; the caller pulls the windows
    /// ([`SweepService::next_window`]) and ends the stream with
    /// [`Response::SweepDone`]. Every other verb, and a sweep that fails to
    /// resolve or is not admitted, is answered with its one terminal
    /// [`Response`]. [`Request::Shutdown`] is acknowledged here but acted on
    /// by the server loop.
    pub fn handle(&self, request: &Request) -> Answer {
        self.count_request(request.verb());
        let response = match request {
            Request::Ping => Ok(Response::Pong { version: PROTOCOL_VERSION.to_string() }),
            Request::Stats => Ok(Response::Stats(self.stats())),
            Request::Metrics => {
                let snapshot = self.registry().snapshot();
                Ok(Response::Metrics {
                    json: snapshot.to_json(),
                    prometheus: snapshot.to_prometheus(),
                })
            }
            Request::Catalogue => Ok(Response::Catalogue { entries: self.catalogue_entries() }),
            Request::Shutdown => Ok(Response::ShuttingDown),
            Request::Sweep { space, start, end, chunk } => match self
                .resolve_handle(space)
                .and_then(|handle| self.begin_sweep_handle(handle, *start..*end, *chunk))
            {
                Ok(ticket) => return Answer::Sweep(ticket),
                Err(e) => Err(e),
            },
            Request::TopK { space, k } => self.reduce_space(space, Query::TopK(*k)),
            Request::Pareto { space, cost } => self.reduce_space(space, Query::Pareto(*cost)),
            Request::Curve { figure } => {
                self.queries.fetch_add(1, Ordering::Relaxed);
                figure_curves(*figure)
                    .map(|curves| Response::Curves { curves })
                    .map_err(|e| err(format!("figure {figure} failed: {e}")))
            }
            Request::Prepare { space } => {
                self.prepare_spec(space).map(|(id, scenarios)| Response::Prepared { id, scenarios })
            }
            Request::JobSubmit { space, start, end, chunk, checkpoint_every } => {
                self.job_verb(|jobs| {
                    let space = self.resolve_space(space)?;
                    check_budgets(&space)?;
                    jobs.submit(space, *start..*end, *chunk, *checkpoint_every)
                })
            }
            Request::JobStatus { id } => self.job_verb(|jobs| jobs.status(id)),
            Request::JobCancel { id } => self.job_verb(|jobs| jobs.cancel(id)),
            Request::JobResume { id } => self.job_verb(|jobs| jobs.resume(id)),
        };
        Answer::Response(response.unwrap_or_else(ServeError::into_response))
    }

    /// Count one request on its verb's `requests_total_<verb>`. Slots are
    /// claimed in order and never change, so a verb's racing first requests
    /// meet at one slot.
    fn count_request(&self, verb: &'static str) {
        for slot in &self.metrics.requests {
            let (name, counter) = slot
                .get_or_init(|| (verb, self.registry().counter(&format!("requests_total_{verb}"))));
            if *name == verb {
                return counter.inc();
            }
        }
        unreachable!("more protocol verbs than request-counter slots");
    }

    /// Shared dispatch of the four job verbs: resolve the attached manager,
    /// run the verb, answer with the resulting snapshot.
    fn job_verb(
        &self,
        verb: impl FnOnce(&crate::jobs::JobManager) -> Result<crate::protocol::JobSnapshot, ServeError>,
    ) -> Result<Response, ServeError> {
        let jobs = self.jobs().ok_or_else(|| {
            err("durable jobs are not enabled on this server (start it with a jobs manager)")
        })?;
        verb(&jobs).map(Response::Job)
    }

    /// Shared resolve → admit → reduce path of the record-returning
    /// analysis verbs: the whole space, folded while it is swept.
    fn reduce_space(&self, spec: &SpaceSpec, query: Query) -> Result<Response, ServeError> {
        let result = self.query(&self.resolve_handle(spec)?, None, query)?;
        Ok(Response::Records { records: to_wire(&result.records) })
    }
}

/// What [`SweepService::handle`] answers a request with.
#[derive(Debug)]
pub enum Answer {
    /// The request's one, terminal response.
    Response(Response),
    /// An admitted sweep, not yet evaluated: its windows are pulled with
    /// [`SweepService::next_window`].
    Sweep(SweepTicket),
}

/// Validate a sweep range against a space length.
fn check_range(range: &Range<usize>, n: usize) -> Result<(), ServeError> {
    if range.start > range.end || range.end > n {
        return Err(err(format!(
            "sweep range {}..{} exceeds the {n}-scenario space",
            range.start, range.end
        )));
    }
    Ok(())
}

/// Refuse a space with a budget that is not finite and positive — the rule
/// `ScenarioSpace::with_budgets` asserts, which a deserialised space skips.
/// Building its tables would panic on such a budget.
fn check_budgets(space: &ScenarioSpace) -> Result<(), ServeError> {
    match space.budgets().iter().find(|b| !(b.is_finite() && **b > 0.0)) {
        Some(budget) => Err(err(format!("budgets must be finite and positive, got {budget}"))),
        None => Ok(()),
    }
}

/// An open, admitted streaming sweep: the prepared handle plus a
/// [`RangeCursor`] over the not-yet-pulled remainder and the statistics
/// accumulated so far. Holding a ticket costs one `Arc` on the prepared
/// snapshot — no records are computed or buffered until
/// [`SweepService::next_window`] pulls them, which is what lets the reactor
/// park a sweep for a slow connection and re-arm it from `EPOLLOUT`.
#[derive(Debug)]
pub struct SweepTicket {
    handle: Arc<SweepHandle<'static>>,
    cursor: RangeCursor,
    chunk: usize,
    stats: SweepStats,
    started: Instant,
    first_window: bool,
}

impl SweepTicket {
    /// The response chunk size the query asked for, normalised to
    /// `1..=DEFAULT_CHUNK`.
    pub fn chunk(&self) -> usize {
        self.chunk
    }

    /// Scenarios not yet pulled.
    pub fn remaining(&self) -> usize {
        self.cursor.remaining()
    }

    /// Whether every window has been pulled.
    pub fn is_done(&self) -> bool {
        self.cursor.is_done()
    }

    /// Statistics accumulated over the windows pulled so far (the final
    /// sweep statistics once [`SweepTicket::is_done`]).
    pub fn stats(&self) -> SweepStats {
        self.stats
    }
}

/// Content fingerprint of a space: FNV over its canonical JSON form
/// (delegates to [`mp_dse::engine::space_fingerprint`], the same hash the
/// planner keys its coalescing table on).
fn space_fingerprint(space: &ScenarioSpace) -> u64 {
    mp_dse::engine::space_fingerprint(space)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::DEFAULT_COST_PER_SCENARIO_MS;
    use crate::protocol::from_wire;
    use mp_dse::analysis::{pareto_frontier, top_k, CostAxis};
    use mp_dse::backend::{AnalyticBackend, SimBackend};
    use mp_dse::cache::{CacheStats, EvalCache};
    use mp_model::params::AppParams;

    fn space() -> ScenarioSpace {
        ScenarioSpace::new()
            .with_apps(AppParams::table2_all())
            .clear_designs()
            .add_symmetric_grid((0..40).map(|i| 1.0 + i as f64 * 3.0))
            .add_asymmetric_grid([1.0, 4.0], [4.0, 16.0, 64.0])
    }

    fn service(shards: usize) -> SweepService {
        service_with(shards, Arc::new(AnalyticBackend))
    }

    /// A service over the simulator, a backend that memoises.
    fn sim_service(shards: usize) -> SweepService {
        service_with(shards, Arc::new(SimBackend::new()))
    }

    fn service_with(shards: usize, backend: Arc<dyn EvalBackend + Send + Sync>) -> SweepService {
        SweepService::new(
            backend,
            &ServiceConfig { shards, threads_per_shard: 2, ..ServiceConfig::default() },
        )
    }

    /// `space()` with the budget axis `[budget]`, decoded from JSON the way
    /// a request carries it — `with_budgets` would refuse the value.
    fn space_with_budget(budget: &str) -> ScenarioSpace {
        let json = serde_json::to_string(&space()).unwrap();
        let (head, rest) = json.split_once("\"budgets\":[").unwrap();
        let (_, tail) = rest.split_once(']').unwrap();
        serde_json::from_str(&format!("{head}\"budgets\":[{budget}]{tail}")).unwrap()
    }

    #[test]
    fn budgets_that_are_not_finite_and_positive_are_refused_on_every_verb() {
        let service = Arc::new(service(1));
        let config = crate::jobs::JobConfig::default();
        let _jobs = crate::jobs::JobManager::new(Arc::clone(&service), None, config).unwrap();
        for budget in ["0", "-5", "1e999"] {
            let space = space_with_budget(budget);
            let value = space.budgets()[0];
            assert!(!(value.is_finite() && value > 0.0), "{budget} decodes to {value}");
            let spec = || SpaceSpec::Explicit(space.clone());
            let n = space.len();
            for request in [
                Request::Sweep { space: spec(), start: 0, end: n, chunk: 0 },
                Request::TopK { space: spec(), k: 3 },
                Request::Prepare { space: spec() },
                Request::JobSubmit {
                    space: spec(),
                    start: 0,
                    end: n,
                    chunk: 0,
                    checkpoint_every: 0,
                },
            ] {
                match service.handle(&request) {
                    Answer::Response(Response::Error { message }) => {
                        assert!(
                            message.contains("budgets must be finite and positive"),
                            "{message}"
                        )
                    }
                    other => panic!(
                        "budget {budget}, {}: expected an error, got {other:?}",
                        request.verb()
                    ),
                }
            }
        }
        assert_eq!(service.stats().prepared_spaces, 0, "nothing was built");
    }

    #[test]
    fn a_services_cost_model_calibrates_on_its_own_engine_alone() {
        let (a, b) = (service(1), service(1));
        let space = ScenarioSpace::new()
            .with_apps(AppParams::table2_all())
            .clear_designs()
            .add_symmetric_grid((0..2000).map(|i| 1.0 + i as f64 * 0.125));
        // More than one calibration window's worth of scenarios.
        assert!(space.len() > 4096, "{}", space.len());
        a.sweep(&space, None).unwrap();
        assert_ne!(a.cost_model.cost_per_scenario_ms(), DEFAULT_COST_PER_SCENARIO_MS);
        assert_eq!(b.cost_model.cost_per_scenario_ms(), DEFAULT_COST_PER_SCENARIO_MS);
    }

    #[test]
    fn racing_first_requests_of_every_verb_register_one_series_each() {
        let service = service(1);
        let verbs = [
            "ping",
            "stats",
            "metrics",
            "catalogue",
            "shutdown",
            "sweep",
            "top_k",
            "pareto",
            "curve",
            "prepare",
            "job_submit",
            "job_status",
            "job_cancel",
            "job_resume",
        ];
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| verbs.iter().for_each(|verb| service.count_request(verb)));
            }
        });
        let snapshot = service.registry().snapshot();
        for verb in verbs {
            assert_eq!(snapshot.counter(&format!("requests_total_{verb}")), Some(4), "{verb}");
        }
        let series =
            snapshot.counters.iter().filter(|(name, _)| name.starts_with("requests_total_"));
        assert_eq!(series.count(), verbs.len());
    }

    #[test]
    fn served_sweep_is_bit_identical_to_a_direct_engine_sweep() {
        let space = space();
        let direct = Engine::new(2).sweep(&space, &AnalyticBackend, &SweepConfig::default());
        for shards in [1usize, 3] {
            let service = service(shards);
            assert_eq!(service.engine.threads(), shards * 2, "shards × threads_per_shard");
            assert_eq!(service.shards(), shards);
            let served = service.sweep(&space, None).unwrap();
            assert_eq!(served.records.len(), direct.records.len());
            for (a, b) in served.records.iter().zip(direct.records.iter()) {
                assert_eq!(a.index, b.index);
                assert_eq!(a.speedup.to_bits(), b.speedup.to_bits());
            }
            assert_eq!(served.stats.scenarios, space.len());
        }
    }

    #[test]
    fn one_scenario_spaces_sweep_cleanly_at_any_thread_count() {
        // With n < threads most workers have nothing to pull; a 1-scenario
        // space must still evaluate its one scenario, warm the cache, and
        // answer repeats from it.
        let space = ScenarioSpace::new().clear_designs().add_symmetric_grid([2.0]);
        assert_eq!(space.len(), 1);
        let direct = Engine::new(1).sweep(&space, &SimBackend::new(), &SweepConfig::default());
        for shards in [1usize, 4, 8] {
            let service = sim_service(shards);
            let cold = service.sweep(&space, None).unwrap();
            assert_eq!(cold.records.len(), 1, "{shards} shards");
            assert_eq!(cold.records[0].speedup.to_bits(), direct.records[0].speedup.to_bits());
            assert_eq!(cold.stats.scenarios, 1);
            let warm = service.sweep(&space, None).unwrap();
            assert_eq!(warm.stats.cache_hits, 1, "{shards} shards answer repeats warm");
            assert_eq!(warm.stats.cache_misses, 0);
            assert_eq!(warm.records[0].speedup.to_bits(), direct.records[0].speedup.to_bits());
            // Streaming path, same degenerate shape.
            let mut ticket = service.begin_sweep(&space, 0..1, 0).unwrap();
            let window = service.next_window(&mut ticket).unwrap().expect("one window");
            assert_eq!(window.len(), 1);
            assert!(service.next_window(&mut ticket).unwrap().is_none());
        }
    }

    #[test]
    fn range_queries_match_the_same_range_of_a_direct_sweep() {
        let space = space();
        let service = service(4);
        let engine = Engine::new(2);
        let handle = SweepHandle::new(&space);
        let n = space.len();
        let windows = [0..n / 5, 27..133, n / 5..n - 3, n - 3..n, 71..72, 0..0];
        for window in windows {
            let part = service.sweep(&space, Some(window.clone())).unwrap();
            let truth =
                engine.sweep_range(&handle, &AnalyticBackend, &SweepConfig::default(), window);
            assert_eq!(part.records.len(), truth.records.len());
            for (record, truth) in part.records.iter().zip(&truth.records) {
                assert_eq!(record.index, truth.index);
                assert_eq!(record.speedup.to_bits(), truth.speedup.to_bits());
            }
        }
        assert!(service.sweep(&space, Some(0..n + 1)).is_err());
    }

    #[test]
    fn prepared_handle_cache_is_lru_bounded() {
        let service = service(1);
        // One more distinct space than the cap: the oldest must be evicted.
        for designs in 1..=(MAX_PREPARED + 1) {
            let space = ScenarioSpace::new()
                .clear_designs()
                .add_symmetric_grid((0..designs).map(|i| 1.0 + i as f64));
            service.sweep(&space, None).unwrap();
        }
        assert_eq!(service.stats().prepared_spaces, MAX_PREPARED);
        // Re-querying a recent space is still a handle hit (count unchanged);
        // the evicted first space gets re-prepared without growing past the
        // cap.
        let recent = ScenarioSpace::new()
            .clear_designs()
            .add_symmetric_grid((0..MAX_PREPARED + 1).map(|i| 1.0 + i as f64));
        service.sweep(&recent, None).unwrap();
        assert_eq!(service.stats().prepared_spaces, MAX_PREPARED);
        let evicted = ScenarioSpace::new().clear_designs().add_symmetric_grid([1.0]);
        service.sweep(&evicted, None).unwrap();
        assert_eq!(service.stats().prepared_spaces, MAX_PREPARED);
    }

    #[test]
    fn warm_repeat_queries_hit_the_cache() {
        let space = space();
        let service = sim_service(4);
        let first = service.sweep(&space, None).unwrap();
        assert_eq!(first.stats.cache_hits, 0);
        let second = service.sweep(&space, None).unwrap();
        assert_eq!(second.stats.cache_hits, space.len() as u64);
        assert_eq!(second.stats.cache_misses, 0);
        assert!(second.stats.warm_entries > 0);
        let cache = service.stats().cache;
        assert_eq!(cache.entries, space.len());
        assert!(cache.hits >= space.len() as u64);
        // The prepared handle was reused, not rebuilt.
        assert_eq!(service.stats().prepared_spaces, 1);
        assert_eq!(service.stats().queries, 2);
    }

    #[test]
    fn a_backend_that_does_not_memoise_leaves_the_cache_untouched() {
        // Blocking sweeps, a streamed ticket and a segment spill on a
        // backend that does not memoise: no reserve, probe, insert or file.
        let space = space();
        let service = service(2);
        for _ in 0..2 {
            let result = service.sweep(&space, None).unwrap();
            assert_eq!(result.stats.cache_hits, 0);
            assert_eq!(result.stats.cache_misses, space.len() as u64);
        }
        let mut ticket = service.begin_sweep(&space, 0..space.len(), 64).unwrap();
        while service.next_window(&mut ticket).unwrap().is_some() {}
        assert_eq!(ticket.stats().cache_misses, space.len() as u64);
        let dir = std::env::temp_dir().join(format!("mp-serve-nomemo-{}", std::process::id()));
        assert_eq!(service.save_cache_segments(&dir).unwrap(), 0);
        assert!(!dir.join(CACHE_SEGMENT).exists(), "nothing to spill");
        assert_eq!(service.load_cache_segments(&dir), 0);
        let _ = std::fs::remove_dir_all(&dir);
        // Three passes computed by the backend; nothing else moved.
        let untouched = CacheStats { misses: 3 * space.len() as u64, ..EvalCache::new().stats() };
        assert_eq!(service.stats().cache, untouched);
    }

    /// The records of a `top_k` / `pareto` answer.
    fn records(answer: Answer) -> Vec<EvalRecord> {
        match answer {
            Answer::Response(Response::Records { records }) => from_wire(&records),
            other => panic!("expected records, got {other:?}"),
        }
    }

    #[test]
    fn analysis_queries_match_direct_analysis() {
        let space = space();
        let service = service(2);
        let direct = Engine::new(1).sweep(&space, &AnalyticBackend, &SweepConfig::default());
        let spec = || SpaceSpec::Explicit(space.clone());
        let top = records(service.handle(&Request::TopK { space: spec(), k: 5 }));
        assert_eq!(top, top_k(&direct.records, 5));
        let cost = CostAxis::Cores;
        let frontier = records(service.handle(&Request::Pareto { space: spec(), cost }));
        assert_eq!(frontier, pareto_frontier(&direct.records, cost));
    }

    #[test]
    fn pulled_windows_are_bit_identical_to_a_blocking_sweep() {
        let space = space();
        let service = sim_service(3);
        let blocking = service.sweep(&space, None).unwrap();
        // A ragged sub-range and a chunk size that does not divide it.
        let range = 7..space.len() - 5;
        let mut ticket = service.begin_sweep(&space, range.clone(), 100).unwrap();
        assert_eq!(ticket.chunk(), 100);
        assert_eq!(ticket.remaining(), range.len());
        let mut pulled = Vec::new();
        while let Some(records) = service.next_window(&mut ticket).unwrap() {
            assert!(records.len() <= 8100, "windows pull at most ~DEFAULT_CHUNK scenarios");
            if !ticket.is_done() {
                assert_eq!(records.len() % 100, 0, "non-final windows are chunk-aligned");
            }
            pulled.extend(records);
        }
        assert!(ticket.is_done());
        let stats = ticket.stats();
        assert_eq!(stats.scenarios, range.len());
        assert_eq!(pulled.len(), range.len());
        for (record, truth) in pulled.iter().zip(&blocking.records[range]) {
            assert_eq!(record.index, truth.index);
            assert_eq!(record.speedup.to_bits(), truth.speedup.to_bits());
        }
        // The ticket pulled everything warm (the blocking sweep filled the
        // caches), so hits account for every scenario.
        assert_eq!(stats.cache_hits, stats.scenarios as u64);

        // Range validation happens at begin time.
        let bad = service.begin_sweep(&space, 0..space.len() + 1, 0).unwrap_err();
        assert!(!bad.is_busy());
    }

    #[test]
    fn protocol_dispatch_answers_sweeps_with_tickets_and_reports_errors() {
        let space = space();
        let service = service(2);
        let sweep =
            |space, start, end, chunk| service.handle(&Request::Sweep { space, start, end, chunk });
        let explicit = || SpaceSpec::Explicit(space.clone());
        let answer = sweep(explicit(), 0, space.len(), 64);
        let Answer::Sweep(mut ticket) = answer else { panic!("expected a ticket, got {answer:?}") };
        assert_eq!(ticket.chunk(), 64);
        // The pulled windows tile the range in order, every one but the last
        // a whole number of chunks.
        let (mut next, mut chunks) = (0, 0);
        while let Some(window) = service.next_window(&mut ticket).unwrap() {
            assert_eq!(window[0].index, next, "windows are consecutive");
            if !ticket.is_done() {
                assert_eq!(window.len() % 64, 0, "non-final windows are chunk-aligned");
            }
            next += window.len();
            chunks += window.chunks(ticket.chunk()).count();
        }
        assert_eq!(next, space.len());
        assert_eq!(chunks, space.len().div_ceil(64));
        assert_eq!(ticket.stats().scenarios, space.len());

        let bad = sweep(explicit(), 5, 1, 0);
        assert!(matches!(bad, Answer::Response(Response::Error { .. })), "{bad:?}");
        let ids = vec!["0123456789abcdef".to_string()];
        let unknown = sweep(SpaceSpec::Catalogue { ids, space: space.clone() }, 0, 1, 0);
        assert!(matches!(unknown, Answer::Response(Response::Error { .. })), "{unknown:?}");
    }
}
