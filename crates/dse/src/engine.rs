//! The sweep engine: fans a [`ScenarioSpace`] out over an [`mp_par::Team`]
//! in cache-friendly batches.
//!
//! The space is cut into contiguous index batches (the design axis varies
//! fastest, so a batch shares the application/growth/perf axes and the
//! backend's batched path can hoist model construction). An engine of `n`
//! threads owns a team of `n` members — the calling thread plus `n − 1`
//! persistent workers — and one fork-join on it ([`Team::run`]) runs the
//! same worker closure on every member: it pulls the next batch from a
//! locked queue — one uncontended lock per batch, no per-scenario
//! synchronisation. Two entry points share that one batch loop:
//!
//! * [`Engine::sweep_range`] queues disjoint `&mut` slices of the one
//!   preallocated record vector, so the output is deterministic and ordered
//!   regardless of scheduling, and the borrow checker, not a comment, is
//!   what keeps two workers off one slot.
//! * [`Engine::reduce_range`] answers a query that wants a few records back
//!   (the top `k`, a Pareto frontier) without that vector: each worker
//!   evaluates a batch into a buffer of its own, folds it into a private
//!   [`Reducer`] partial while it is still in cache, and the partials are
//!   merged after the fork-join. Its memory grows with the partials
//!   (`k` records; one record per cost value), not with the space.
//!
//! A sweep memoises when its [`SweepConfig::use_cache`] allows it and its
//! backend asks for it ([`EvalBackend::memoise`]): each batch then first
//! probes the [`EvalCache`] by canonical scenario fingerprint; only the
//! misses are evaluated (and back-filled into the cache). The analytic and
//! measured backends recompute for less than a probe costs, so their sweeps
//! take the uncached path whatever the config says — no
//! `reserve`, no key folding, no back-fill — and report every scenario as a
//! miss. Because the cache stores raw `f64` bit patterns, cached and uncached
//! sweeps produce bit-identical records.

use std::borrow::Cow;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use mp_obs::hist::Histogram;
use mp_obs::metrics::{Counter, Registry};
use mp_obs::profile::thread_lane;
use mp_par::Team;
use serde::{Deserialize, Serialize};

use crate::backend::EvalBackend;
use crate::cache::EvalCache;
use crate::scenario::{Scenario, ScenarioSpace};
use crate::tables::SpaceTables;

/// An engine's series in its registry (README's observability catalogue),
/// created with the engine: the hot path pays a relaxed sharded
/// `fetch_add` per *batch*, never a registry lookup.
pub struct EngineMetrics {
    /// `dse_scenarios_evaluated`.
    pub scenarios: Arc<Counter>,
    /// `cache_misses`.
    pub cache_misses: Arc<Counter>,
    /// `dse_batch_ms`.
    pub batch_ms: Arc<Histogram>,
    /// `dse_table_build_ms`, recorded by [`Engine::build_handle`] for
    /// whoever builds a [`SweepHandle`] for this engine: [`Engine::sweep`],
    /// or a service preparing a space.
    pub table_build_ms: Arc<Histogram>,
}

/// One evaluated scenario of a sweep.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EvalRecord {
    /// Flat index into the swept [`ScenarioSpace`].
    pub index: usize,
    /// Predicted speedup (`NaN` for designs that do not fit their budget or
    /// that the backend rejected).
    pub speedup: f64,
    /// Number of cores of the design.
    pub cores: f64,
    /// Swept-axis area of the design (`r` symmetric, `rl` asymmetric).
    pub area: f64,
}

impl EvalRecord {
    /// Whether the record carries a real evaluation.
    pub fn is_valid(&self) -> bool {
        self.speedup.is_finite()
    }
}

/// Tuning knobs of one sweep.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SweepConfig {
    /// Scenarios per work batch. Batches are contiguous index ranges, so this
    /// is also the granularity of the backend's model-hoisting fast path.
    pub batch_size: usize,
    /// Whether the sweep may consult and fill the engine's memoisation
    /// cache. It does only if the backend also memoises
    /// ([`EvalBackend::memoise`]).
    pub use_cache: bool,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig { batch_size: 1024, use_cache: true }
    }
}

/// Bookkeeping of one sweep.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct SweepStats {
    /// Total scenarios submitted.
    pub scenarios: usize,
    /// Scenarios with a finite speedup.
    pub valid: usize,
    /// Scenario evaluations answered from the memoisation cache.
    pub cache_hits: u64,
    /// Scenario evaluations computed by the backend.
    pub cache_misses: u64,
    /// Cache entries already present when the sweep started (its warm-start
    /// budget; `0` for uncached or cold-cache sweeps).
    pub warm_entries: usize,
    /// Worker threads that participated.
    pub threads: usize,
    /// Whether this result was shared from a coalesced in-flight evaluation
    /// rather than evaluated for this subscriber alone. The engine itself
    /// never coalesces (`false` here); the serve-layer planner marks the
    /// stats it fans out to follower subscribers, so aggregators summing
    /// per-response stats can count each shared evaluation once.
    pub coalesced: bool,
    /// Wall-clock duration of the sweep in seconds.
    pub elapsed_seconds: f64,
}

/// The outcome of a sweep: one record per scenario, in index order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepResult {
    /// Evaluated records, ordered by scenario index.
    pub records: Vec<EvalRecord>,
    /// Sweep bookkeeping.
    pub stats: SweepStats,
}

/// A reusable sweep engine: a fork-join team, a memoisation cache and their metrics registry.
pub struct Engine {
    team: Team,
    cache: EvalCache,
    registry: Registry,
    metrics: EngineMetrics,
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("threads", &self.threads())
            .field("cache", &self.cache)
            .finish()
    }
}

impl Engine {
    /// An engine with `threads` workers: the calling thread and
    /// `threads − 1` persistent ones (1 evaluates inline).
    pub fn new(threads: usize) -> Self {
        assert!(threads > 0, "engine needs at least one thread");
        let registry = Registry::new();
        Engine {
            team: Team::new(threads),
            cache: EvalCache::registered_in(&registry),
            metrics: EngineMetrics {
                scenarios: registry.counter("dse_scenarios_evaluated"),
                cache_misses: registry.counter("cache_misses"),
                batch_ms: registry.histogram_ms("dse_batch_ms"),
                table_build_ms: registry.histogram_ms("dse_table_build_ms"),
            },
            registry,
        }
    }

    /// An engine using every available hardware thread.
    pub fn with_all_cores() -> Self {
        let threads = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1);
        Engine::new(threads)
    }

    /// Worker-thread count, the calling thread included.
    pub fn threads(&self) -> usize {
        self.team.size()
    }

    /// The engine's memoisation cache (for persistence or inspection).
    pub fn cache(&self) -> &EvalCache {
        &self.cache
    }

    /// The engine's metrics registry: its series, its cache's, and those of
    /// a service built on the engine.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Handles on the engine's own series in [`Engine::registry`].
    pub fn metrics(&self) -> &EngineMetrics {
        &self.metrics
    }

    /// Evaluate every scenario of `space` with `backend`.
    pub fn sweep(
        &self,
        space: &ScenarioSpace,
        backend: &dyn EvalBackend,
        config: &SweepConfig,
    ) -> SweepResult {
        let handle = self.build_handle(space.len(), || SweepHandle::new(space));
        self.sweep_range(&handle, backend, config, 0..handle.len())
    }

    /// Run `build`, which prepares a [`SweepHandle`] over `scenarios`
    /// scenarios, timed on `dse_table_build_ms` and under a `table_build`
    /// span of the registry's profiler.
    pub fn build_handle<'a>(
        &self,
        scenarios: usize,
        build: impl FnOnce() -> SweepHandle<'a>,
    ) -> SweepHandle<'a> {
        let profiler = self.registry.profiler();
        let _span = profiler
            .is_enabled()
            .then(|| profiler.span(&format!("table_build ({scenarios})"), "engine", thread_lane()));
        let started = std::time::Instant::now();
        let handle = build();
        self.metrics.table_build_ms.record(started.elapsed().as_secs_f64() * 1e3);
        handle
    }

    /// Evaluate the contiguous index sub-range `range` of a prepared sweep.
    ///
    /// This is the reusable core of [`Engine::sweep`]: the handle's
    /// [`SpaceTables`] are built once and shared across any number of calls
    /// (and engines), so a resident service can answer incremental or
    /// repeated queries without re-deriving the columnar precomputation.
    /// Records carry **global** flat indices into the handle's space, and a
    /// range sweep is bit-identical to the same slice of a full sweep — the
    /// per-scenario values are deterministic functions of the scenario and
    /// backend alone.
    pub fn sweep_range(
        &self,
        handle: &SweepHandle<'_>,
        backend: &dyn EvalBackend,
        config: &SweepConfig,
        range: std::ops::Range<usize>,
    ) -> SweepResult {
        assert!(range.end <= handle.len(), "sweep range {range:?} exceeds the space");
        let n = range.len();
        // The batches cover `0..n` exactly once and overwrite every record,
        // so a `vec![placeholder; n]` would be a second full write pass over
        // tens of megabytes. The all-zero byte pattern is a valid
        // `EvalRecord` (index 0, +0.0 everywhere), so the vector comes from
        // a zeroed allocation instead: the kernel's lazily-mapped zero pages
        // make it near-free and every element is still initialised.
        let mut records: Vec<EvalRecord> = zeroed_records(n);
        crate::mem::advise_huge_pages(records.as_mut_ptr(), n * std::mem::size_of::<EvalRecord>());
        // Batch `i` is the `i`-th disjoint slice of the record vector: each
        // worker evaluates straight into the answer.
        let (_, stats) = self.drive(
            handle,
            backend,
            config,
            range,
            |batch| records.chunks_mut(batch),
            |_| (),
            |(), ctx, batch, out, scratch| process_batch(ctx, batch, out, scratch),
        );
        SweepResult { records, stats }
    }

    /// Fold the contiguous index sub-range `range` of a prepared sweep into
    /// a [`Reducer`], without materialising its records.
    ///
    /// Workers pull batches exactly as [`Engine::sweep_range`]'s do, but each
    /// evaluates a batch into a batch-sized buffer of its own and folds it
    /// into a private partial (a clone of `init`) while the values are still
    /// in cache; no record vector of the range's length is ever allocated.
    /// The partials are merged once the fork-join has returned. A reducer is
    /// a commutative, associative fold, so the merged partial is the same
    /// for any batch size, thread count or interleaving — the same as
    /// folding a full sweep's records in one piece.
    pub fn reduce_range<R: Reducer>(
        &self,
        handle: &SweepHandle<'_>,
        backend: &dyn EvalBackend,
        config: &SweepConfig,
        range: std::ops::Range<usize>,
        init: R,
    ) -> (R, SweepStats) {
        assert!(range.end <= handle.len(), "reduce range {range:?} exceeds the space");
        let n = range.len();
        let (partials, stats) = self.drive(
            handle,
            backend,
            config,
            range,
            |batch| 0..n.div_ceil(batch),
            |batch| (init.clone(), zeroed_records(batch.min(n))),
            |(partial, buffer), ctx, batch, _, scratch| {
                let out = &mut buffer[..batch.len()];
                process_batch(ctx, batch, out, scratch);
                partial.fold(out);
            },
        );
        let merged = partials.into_iter().map(|(partial, _)| partial).reduce(|mut all, partial| {
            all.merge(partial);
            all
        });
        (merged.unwrap_or(init), stats)
    }

    /// The one batch loop behind [`Engine::sweep_range`] and
    /// [`Engine::reduce_range`]: cache and salt setup, batch sizing, the work
    /// queue and the sweep's statistics.
    ///
    /// `queue(batch)` yields one item per batch, in index order; whoever holds
    /// the queue's lock takes the next one. Each worker builds its own state
    /// with `worker(batch)` and hands every batch it pulls — its global index
    /// range, queue item and scratch — to `run`. The worker states come back
    /// in the order the workers finished.
    #[allow(clippy::too_many_arguments)]
    fn drive<Q, W>(
        &self,
        handle: &SweepHandle<'_>,
        backend: &dyn EvalBackend,
        config: &SweepConfig,
        range: std::ops::Range<usize>,
        queue: impl FnOnce(usize) -> Q,
        worker: impl Fn(usize) -> W + Sync,
        run: impl Fn(&mut W, &BatchCtx<'_>, std::ops::Range<usize>, Q::Item, &mut BatchScratch) + Sync,
    ) -> (Vec<W>, SweepStats)
    where
        Q: Iterator + Send,
        W: Send,
    {
        assert!(config.batch_size > 0, "batch size must be positive");
        let space = handle.space();
        let tables = handle.tables();
        let started = std::time::Instant::now();
        let n = range.len();
        let cache = (config.use_cache && backend.memoise()).then_some(&self.cache);
        // An empty cache cannot answer any probe, so the sweep skips the
        // guaranteed-miss lookups entirely and goes straight to the columnar
        // evaluation plus back-fill — this halves the cache's memory traffic
        // on a cold first pass. (A concurrently shared cache may gain entries
        // mid-sweep; skipping those probes merely recomputes deterministic
        // values, so records are unaffected.)
        let warm_entries = cache.map_or(0, EvalCache::len);
        let cold_start = cache.is_some() && warm_entries == 0;
        // `cache_hits` is registered by the first sweep that probes the
        // cache, so an engine that never does exports no hit series.
        let cache_hits =
            (cache.is_some() && !cold_start).then(|| self.registry.counter("cache_hits"));
        // The cache never rehashes mid-sweep, and the salt string is built
        // once instead of once per batch.
        let salt = match cache {
            Some(cache) => {
                cache.reserve(n);
                backend.cache_salt()
            }
            None => String::new(),
        };
        let ctx = BatchCtx {
            space,
            tables,
            backend,
            cache,
            engine: self,
            cache_hits,
            cold_start,
            salt: &salt,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            valid: AtomicU64::new(0),
        };

        // Shrink the batch when the space is small relative to the worker
        // count, so every worker gets several batches to pull (load balance);
        // a floor keeps per-batch overheads amortised. Results are
        // batch-size-independent, so this only affects scheduling.
        let threads = self.threads();
        let batch = if threads > 1 {
            config.batch_size.min(n.div_ceil(threads * 4).max(64))
        } else {
            config.batch_size
        };
        // The caller is one of the workers, so exactly `workers` threads
        // evaluate, one logical thread a member; a sweep of one batch stays
        // on the calling thread.
        let workers = threads.min(n.div_ceil(batch)).max(1);
        let states = Mutex::new(Vec::with_capacity(workers));
        let queue = Mutex::new(queue(batch).enumerate());
        self.team.run(workers, |_| {
            // One scratch per worker, reused across every batch it pulls:
            // the per-batch working sets allocate only on the worker's
            // first batch (and never per scenario).
            let mut scratch = BatchScratch::with_capacity(batch);
            let mut state = worker(batch);
            loop {
                // Taken in its own statement, so the lock is released
                // before the batch is evaluated — and never held across
                // a panic.
                let next = queue.lock().expect("no batch runs under the queue lock").next();
                let Some((i, item)) = next else { break };
                let start = range.start + i * batch;
                let end = (start + batch).min(range.end);
                run(&mut state, &ctx, start..end, item, &mut scratch);
            }
            states.lock().expect("no batch runs under the state lock").push(state);
        });

        let stats = SweepStats {
            scenarios: n,
            valid: ctx.valid.into_inner() as usize,
            cache_hits: ctx.hits.into_inner(),
            cache_misses: ctx.misses.into_inner(),
            warm_entries,
            threads: workers,
            coalesced: false,
            elapsed_seconds: started.elapsed().as_secs_f64(),
        };
        (states.into_inner().expect("no batch runs under the state lock"), stats)
    }
}

/// A commutative, associative fold over evaluated records — what
/// [`Engine::reduce_range`] runs in its workers instead of materialising a
/// sweep.
///
/// Each worker folds the batches it pulls into its own clone of the initial
/// value; the partials are then merged. For the answer to be independent of
/// how the records were split and in which order the pieces met, folding
/// and merging must agree with folding every record into one partial, in
/// any order: the reducers of [`crate::analysis`] keep, under a total order,
/// what the sort-based oracles ([`crate::analysis::top_k`],
/// [`crate::analysis::pareto_frontier`]) would.
pub trait Reducer: Clone + Send + Sync {
    /// The finished answer.
    type Output;

    /// Fold records, any subset of the sweep in any order, into this
    /// partial.
    fn fold(&mut self, records: &[EvalRecord]);

    /// Fold another partial into this one.
    fn merge(&mut self, other: Self);

    /// The answer of everything folded so far.
    fn finish(self) -> Self::Output;

    /// Fold `records` as one partial and finish — the in-memory path, for
    /// callers that already hold a sweep's records.
    fn reduce(mut self, records: &[EvalRecord]) -> Self::Output {
        self.fold(records);
        self.finish()
    }
}

/// A reusable sweep snapshot: a scenario space plus its columnar
/// [`SpaceTables`], built once and shared across any number of
/// [`Engine::sweep_range`] calls.
///
/// [`SweepHandle::new`] borrows the space (what [`Engine::sweep`] uses — no
/// cloning on the one-shot path); [`SweepHandle::owned`] takes ownership, for
/// resident services that keep prepared sweeps alive across requests.
pub struct SweepHandle<'a> {
    space: Cow<'a, ScenarioSpace>,
    tables: SpaceTables,
    /// Content fingerprint of the space, computed lazily on first use (the
    /// one-shot sweep path never needs it) and cached — planner keys read
    /// it once per query, not once per serialisation.
    fingerprint: OnceLock<u64>,
}

impl<'a> SweepHandle<'a> {
    /// Prepare a sweep over a borrowed space.
    pub fn new(space: &'a ScenarioSpace) -> Self {
        SweepHandle {
            tables: SpaceTables::new(space),
            space: Cow::Borrowed(space),
            fingerprint: OnceLock::new(),
        }
    }

    /// Prepare a sweep that owns its space (`'static`: storable in caches).
    pub fn owned(space: ScenarioSpace) -> SweepHandle<'static> {
        SweepHandle {
            tables: SpaceTables::new(&space),
            space: Cow::Owned(space),
            fingerprint: OnceLock::new(),
        }
    }

    /// Content fingerprint of the prepared space
    /// ([`space_fingerprint`]), computed on first call and cached.
    pub fn fingerprint(&self) -> u64 {
        *self.fingerprint.get_or_init(|| space_fingerprint(self.space()))
    }

    /// The prepared space.
    pub fn space(&self) -> &ScenarioSpace {
        &self.space
    }

    /// The precomputed design-axis columns.
    pub fn tables(&self) -> &SpaceTables {
        &self.tables
    }

    /// Number of scenarios in the prepared space.
    pub fn len(&self) -> usize {
        self.space.len()
    }

    /// Whether the prepared space is empty.
    pub fn is_empty(&self) -> bool {
        self.space.is_empty()
    }

    /// A resumable cursor over `range` of this prepared sweep, consumed in
    /// `step`-sized windows (see [`RangeCursor`]).
    pub fn cursor(&self, range: std::ops::Range<usize>, step: usize) -> RangeCursor {
        assert!(range.end <= self.len(), "cursor range {range:?} exceeds the space");
        RangeCursor::new(range, step)
    }
}

/// Content fingerprint of a space: FNV-64 over its canonical JSON form.
/// Axis *values* (bit-exact — the JSON printer is shortest-round-trip) and
/// axis order both contribute, matching [`ScenarioSpace`] equality. This is
/// the key the serve layer uses for its prepared-handle cache and the
/// planner's coalescing table.
pub fn space_fingerprint(space: &ScenarioSpace) -> u64 {
    let mut hasher = mp_model::fingerprint::Fnv64::new();
    hasher.write_str(&serde_json::to_string(space).expect("spaces always serialise"));
    hasher.finish()
}

impl std::fmt::Debug for SweepHandle<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SweepHandle").field("scenarios", &self.len()).finish()
    }
}

/// A resumable position inside one prepared sweep: the remaining part of a
/// `[start, end)` index range, consumed in `step`-sized windows.
///
/// This is what lets a resident service stream a large sweep **pull-based**:
/// each [`RangeCursor::next_window`] yields the next contiguous sub-range to
/// hand to [`Engine::sweep_range`], and the cursor can sit parked for as long
/// as the consumer (a slow socket, a paused client) needs — no partial
/// results are buffered, because none are computed until pulled. Windows are
/// always `step`-aligned relative to `start`, so the chunk boundaries of a
/// windowed sweep coincide with those of a one-shot sweep chunked at any
/// divisor of `step`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RangeCursor {
    end: usize,
    step: usize,
    pos: usize,
}

impl RangeCursor {
    /// A cursor over `range`, advancing `step` scenarios per window.
    pub fn new(range: std::ops::Range<usize>, step: usize) -> Self {
        assert!(step > 0, "cursor step must be positive");
        assert!(range.start <= range.end, "cursor range must be ordered");
        RangeCursor { end: range.end, step, pos: range.start }
    }

    /// The next window (empty ranges never come back), or `None` once the
    /// whole range has been handed out.
    pub fn next_window(&mut self) -> Option<std::ops::Range<usize>> {
        if self.pos >= self.end {
            return None;
        }
        let start = self.pos;
        // Saturating: a step near `usize::MAX` is one window to the end.
        self.pos = start.saturating_add(self.step).min(self.end);
        Some(start..self.pos)
    }

    /// First index not yet handed out.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Scenarios not yet handed out.
    pub fn remaining(&self) -> usize {
        self.end - self.pos
    }

    /// Whether every window has been handed out.
    pub fn is_done(&self) -> bool {
        self.pos >= self.end
    }

    /// The window size.
    pub fn step(&self) -> usize {
        self.step
    }
}

/// A record vector of `n` all-zero elements straight from a zeroed
/// allocation — no element-wise initialisation pass. Zero bytes are a valid
/// `EvalRecord` (`index` 0, `+0.0` in every float field).
fn zeroed_records(n: usize) -> Vec<EvalRecord> {
    if n == 0 {
        return Vec::new();
    }
    let layout = std::alloc::Layout::array::<EvalRecord>(n).expect("record layout");
    // SAFETY: the pointer comes from the global allocator with exactly the
    // layout `Vec` will free it under (len == capacity == n), and all-zero
    // bytes initialise every `EvalRecord` field to a valid value.
    unsafe {
        let ptr = std::alloc::alloc_zeroed(layout).cast::<EvalRecord>();
        assert!(!ptr.is_null(), "record allocation failed");
        Vec::from_raw_parts(ptr, n, n)
    }
}

/// Reusable per-worker working sets of one batch. Sized once (to the sweep's
/// batch size) and reused for every batch the worker pulls, so the steady
/// state of the sweep performs no per-batch — let alone per-scenario — heap
/// allocation.
struct BatchScratch {
    speedups: Vec<f64>,
    keys: Vec<(u64, u64)>,
    holes: Vec<bool>,
}

impl BatchScratch {
    fn with_capacity(batch: usize) -> Self {
        BatchScratch {
            speedups: Vec::with_capacity(batch),
            keys: Vec::with_capacity(batch),
            holes: Vec::with_capacity(batch),
        }
    }

    /// Reset for a batch of `len` scenarios.
    fn reset(&mut self, len: usize) {
        self.speedups.clear();
        self.speedups.resize(len, f64::NAN);
        self.keys.clear();
        self.keys.resize(len, (0, 0));
        self.holes.clear();
        self.holes.resize(len, false);
    }
}

/// Walk `range` as maximal runs of consecutive designs sharing every other
/// axis, handing each run's base scenario to `f` along with its offset and
/// length. The decode (and, for the cache path, the canonical-key prefix
/// hash) thus happens once per run instead of once per scenario. Built on
/// the same run decomposition the backends use
/// ([`crate::backend::for_each_design_run`]).
fn for_each_run(
    space: &ScenarioSpace,
    range: std::ops::Range<usize>,
    mut f: impl FnMut(usize, &Scenario<'_>, usize, usize, usize),
) {
    crate::backend::for_each_design_run(space, range, |index, offset, run| {
        let scenario = space.scenario(index);
        f(index, &scenario, index % space.designs().len(), offset, run);
    });
}

/// What every batch of one sweep shares, built once per sweep and borrowed
/// by every worker.
struct BatchCtx<'a> {
    space: &'a ScenarioSpace,
    tables: &'a SpaceTables,
    backend: &'a dyn EvalBackend,
    cache: Option<&'a EvalCache>,
    /// The sweeping engine: its series and its registry's span recorder.
    engine: &'a Engine,
    /// `cache_hits`, for a sweep that probes the cache.
    cache_hits: Option<Arc<Counter>>,
    /// The cache was empty when the sweep started: probes are skipped.
    cold_start: bool,
    salt: &'a str,
    hits: AtomicU64,
    misses: AtomicU64,
    /// Scenarios with a finite speedup.
    valid: AtomicU64,
}

/// Evaluate one contiguous batch into `out`, going through the cache when one
/// is provided.
fn process_batch(
    ctx: &BatchCtx<'_>,
    range: std::ops::Range<usize>,
    out: &mut [EvalRecord],
    scratch: &mut BatchScratch,
) {
    debug_assert_eq!(out.len(), range.len());
    let BatchCtx { space, tables, backend, .. } = *ctx;
    let len = range.len();
    let profiler = ctx.engine.registry.profiler();
    let _span = profiler.is_enabled().then(|| {
        profiler.span(&format!("batch {}..{}", range.start, range.end), "engine", thread_lane())
    });
    let batch_started = std::time::Instant::now();
    scratch.reset(len);

    match ctx.cache {
        None => {
            backend.evaluate_batch_prepared(
                space,
                tables,
                range.clone(),
                &mut scratch.speedups[..],
            );
            ctx.misses.fetch_add(len as u64, Ordering::Relaxed);
            ctx.engine.metrics.cache_misses.add(len as u64);
        }
        Some(cache) => {
            let missing = {
                let speedups = &mut scratch.speedups[..];
                let keys = &mut scratch.keys[..];
                let holes = &mut scratch.holes[..];
                // Hash the shared axes once per design run; per scenario only
                // the design itself is folded into the saved prefix.
                for_each_run(space, range.clone(), |_, scenario, design, offset, run| {
                    let prefix = scenario.canonical_key_prefix(ctx.salt);
                    let designs = &space.designs()[design..design + run];
                    for (key, &spec) in keys[offset..offset + run].iter_mut().zip(designs) {
                        *key = prefix.key_for(spec);
                    }
                });
                if ctx.cold_start {
                    // The cache was empty when the sweep started: every probe
                    // would miss, so evaluate straight away and only pay the
                    // cache's memory traffic for the back-fill.
                    backend.evaluate_batch_prepared(space, tables, range.clone(), speedups);
                    ctx.misses.fetch_add(len as u64, Ordering::Relaxed);
                    ctx.engine.metrics.cache_misses.add(len as u64);
                    cache.record_bypassed_misses(len as u64);
                    cache.insert_batch(keys, speedups);
                    None
                } else {
                    // One read lock for the whole batch's probes.
                    let missing = cache.get_batch(keys, speedups, holes);
                    ctx.hits.fetch_add((len - missing) as u64, Ordering::Relaxed);
                    if let Some(hits) = &ctx.cache_hits {
                        hits.add((len - missing) as u64);
                    }
                    Some(missing)
                }
            };
            if let Some(missing) = missing {
                process_batch_holes(ctx, cache, range.clone(), missing, scratch);
            }
        }
    }

    ctx.engine.metrics.scenarios.add(len as u64);
    ctx.engine.metrics.batch_ms.record(batch_started.elapsed().as_secs_f64() * 1e3);
    let valid = scratch.speedups.iter().filter(|speedup| speedup.is_finite()).count();
    ctx.valid.fetch_add(valid as u64, Ordering::Relaxed);

    // Records read their geometry from the precomputed columns — no
    // per-scenario decode, derivation or scenario materialisation. The
    // budget axis is the second-innermost of the decode order, so its index
    // falls out of the run's base index directly.
    let area = tables.area();
    let designs = space.designs().len();
    let budgets = space.budgets().len();
    crate::backend::for_each_design_run(space, range, |index, offset, run| {
        let design = index % designs;
        let cores = tables.cores(index / designs % budgets);
        for k in 0..run {
            out[offset + k] = EvalRecord {
                index: index + k,
                speedup: scratch.speedups[offset + k],
                cores: cores[design + k],
                area: area[design + k],
            };
        }
    });
}

/// The warm-cache tail of [`process_batch`]: fill the probe holes of a batch
/// whose keys and first-probe results are already in `scratch`.
fn process_batch_holes(
    ctx: &BatchCtx<'_>,
    cache: &EvalCache,
    range: std::ops::Range<usize>,
    missing: usize,
    scratch: &mut BatchScratch,
) {
    let BatchCtx { space, tables, backend, .. } = *ctx;
    let len = range.len();
    let speedups = &mut scratch.speedups[..];
    let keys = &scratch.keys[..];
    let holes = &scratch.holes[..];
    if missing == len {
        // Cold batch: take the backend's columnar fast path.
        backend.evaluate_batch_prepared(space, tables, range.clone(), speedups);
        ctx.misses.fetch_add(len as u64, Ordering::Relaxed);
        ctx.engine.metrics.cache_misses.add(len as u64);
        cache.insert_batch(keys, speedups);
    } else if missing > 0 {
        // Mixed batch: evaluate only the first-probe holes. A hole's
        // key may have been filled since the first probe (a duplicate
        // scenario earlier in this batch, or another worker): take
        // the cached value then — counted as a hit, since no backend
        // evaluation happened — so every slot ends up populated.
        // `peek` keeps the re-probe itself out of the statistics.
        let mut peeked = 0u64;
        let mut evaluated = 0u64;
        for_each_run(space, range, |_, scenario, design, offset, run| {
            for k in 0..run {
                if !holes[offset + k] {
                    continue;
                }
                if let Some(speedup) = cache.peek(keys[offset + k]) {
                    speedups[offset + k] = speedup;
                    peeked += 1;
                    continue;
                }
                let candidate =
                    Scenario { design: space.designs()[design + k], ..scenario.clone() };
                let speedup = if candidate.design.fits(candidate.budget) {
                    backend.evaluate(&candidate).unwrap_or(f64::NAN)
                } else {
                    f64::NAN
                };
                speedups[offset + k] = speedup;
                cache.insert(keys[offset + k], speedup);
                evaluated += 1;
            }
        });
        ctx.hits.fetch_add(peeked, Ordering::Relaxed);
        ctx.misses.fetch_add(evaluated, Ordering::Relaxed);
        if let Some(hits) = &ctx.cache_hits {
            hits.add(peeked);
        }
        ctx.engine.metrics.cache_misses.add(evaluated);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{AnalyticBackend, SimBackend};
    use mp_model::params::{AppClass, AppParams};

    fn space() -> ScenarioSpace {
        ScenarioSpace::new()
            .with_apps(
                AppClass::table3_all().into_iter().map(|c| c.params()).collect::<Vec<AppParams>>(),
            )
            .clear_designs()
            .add_symmetric_grid((0..64).map(|i| 1.0 + i as f64 * 2.0))
            .add_asymmetric_grid([1.0, 4.0], [4.0, 16.0, 64.0])
    }

    #[test]
    fn parallel_and_inline_sweeps_agree_bitwise() {
        let space = space();
        let inline = Engine::new(1);
        let parallel = Engine::new(4);
        let config = SweepConfig { batch_size: 16, use_cache: false };
        let a = inline.sweep(&space, &AnalyticBackend, &config);
        let b = parallel.sweep(&space, &AnalyticBackend, &config);
        assert_eq!(a.records.len(), b.records.len());
        for (x, y) in a.records.iter().zip(b.records.iter()) {
            assert_eq!(x.index, y.index);
            assert_eq!(x.speedup.to_bits(), y.speedup.to_bits());
        }
    }

    #[test]
    fn cached_resweep_hits_every_scenario() {
        // The simulator memoises; the analytic and measured backends never
        // touch the cache (tests/sweep_parity.rs).
        let space = space();
        let engine = Engine::new(2);
        let config = SweepConfig { batch_size: 32, use_cache: true };
        let sim = SimBackend::new();
        let first = engine.sweep(&space, &sim, &config);
        assert_eq!(first.stats.cache_hits, 0);
        assert_eq!(first.stats.cache_misses, space.len() as u64);
        let second = engine.sweep(&space, &sim, &config);
        assert_eq!(second.stats.cache_hits, space.len() as u64);
        assert_eq!(second.stats.cache_misses, 0);
        for (x, y) in first.records.iter().zip(second.records.iter()) {
            assert_eq!(x.speedup.to_bits(), y.speedup.to_bits());
        }
    }

    #[test]
    fn reductions_report_the_stats_and_answer_of_the_same_sweep() {
        use crate::analysis::{top_k, TopK};
        let space = space();
        let handle = SweepHandle::new(&space);
        let config = SweepConfig { batch_size: 16, use_cache: false };
        let engine = Engine::new(3);
        for range in [0..0, 5..6, 7..handle.len() - 2] {
            let swept = engine.sweep_range(&handle, &AnalyticBackend, &config, range.clone());
            let (top, stats) =
                engine.reduce_range(&handle, &AnalyticBackend, &config, range, TopK::new(3));
            assert_eq!(
                (stats.scenarios, stats.valid, stats.threads, stats.cache_misses),
                (
                    swept.stats.scenarios,
                    swept.stats.valid,
                    swept.stats.threads,
                    swept.stats.cache_misses
                )
            );
            assert_eq!(top.finish(), top_k(&swept.records, 3));
        }
    }

    #[test]
    fn reductions_memoise_like_sweeps() {
        use crate::analysis::{pareto_frontier, CostAxis, Pareto};
        let space = space();
        let handle = SweepHandle::new(&space);
        let n = handle.len();
        let config = SweepConfig { batch_size: 32, use_cache: true };
        let sim = SimBackend::new();
        let engine = Engine::new(2);
        let pareto = Pareto::new(&space, CostAxis::Area);
        let (cold, cold_stats) = engine.reduce_range(&handle, &sim, &config, 0..n, pareto.clone());
        assert_eq!(cold_stats.cache_misses, n as u64);
        let (warm, warm_stats) = engine.reduce_range(&handle, &sim, &config, 0..n, pareto);
        assert_eq!(warm_stats.cache_hits, n as u64, "a reduction reads what it cached");
        let truth = pareto_frontier(&engine.sweep(&space, &sim, &config).records, CostAxis::Area);
        assert_eq!(cold.finish(), truth);
        assert_eq!(warm.finish(), truth);
    }

    #[test]
    fn unfit_designs_become_nan_records() {
        let space = ScenarioSpace::new()
            .with_budgets(vec![16.0])
            .clear_designs()
            .add_symmetric_grid([1.0, 16.0, 64.0]);
        let engine = Engine::new(1);
        let result = engine.sweep(&space, &AnalyticBackend, &SweepConfig::default());
        assert_eq!(result.stats.scenarios, 3);
        assert_eq!(result.stats.valid, 2);
        assert!(result.records[2].speedup.is_nan());
    }

    #[test]
    fn stats_count_scenarios_and_threads() {
        let space = space();
        let engine = Engine::new(3);
        let result = engine.sweep(
            &space,
            &AnalyticBackend,
            &SweepConfig { batch_size: 8, use_cache: false },
        );
        assert_eq!(result.stats.scenarios, space.len());
        assert_eq!(result.stats.threads, 3);
        assert!(result.stats.valid > 0);
        assert!(result.stats.elapsed_seconds >= 0.0);
    }

    #[test]
    fn reconfigured_backend_does_not_read_stale_cache_entries() {
        // A grid whose merge tables spill the L1 at the default operation
        // budget but not at a smaller one, so the two configurations truly
        // disagree.
        let space = ScenarioSpace::new()
            .with_apps(AppParams::table2_all())
            .clear_designs()
            .add_symmetric_grid([1.0, 2.0, 4.0]);
        let engine = Engine::new(1);
        let cached = SweepConfig { batch_size: 4, use_cache: true };
        let uncached = SweepConfig { batch_size: 4, use_cache: false };

        let big = SimBackend::new();
        let small = SimBackend::new().with_total_ops(1e5);
        let truth_small = engine.sweep(&space, &small, &uncached);
        let truth_big = engine.sweep(&space, &big, &uncached);
        assert!(
            truth_small
                .records
                .iter()
                .zip(truth_big.records.iter())
                .any(|(a, b)| a.speedup.to_bits() != b.speedup.to_bits()),
            "configurations must disagree for this test to be meaningful"
        );

        // Warm the cache with one configuration, then sweep the other: the
        // differently-configured backend must not hit the first one's salt.
        let first = engine.sweep(&space, &big, &cached);
        let second = engine.sweep(&space, &small, &cached);
        assert_eq!(second.stats.cache_hits, 0, "different config must not hit");
        for ((a, truth_a), (b, truth_b)) in first
            .records
            .iter()
            .zip(truth_big.records.iter())
            .zip(second.records.iter().zip(truth_small.records.iter()))
        {
            assert_eq!(a.speedup.to_bits(), truth_a.speedup.to_bits());
            assert_eq!(b.speedup.to_bits(), truth_b.speedup.to_bits());
        }
    }

    #[test]
    fn range_sweep_matches_the_same_slice_of_a_full_sweep_bitwise() {
        let space = space();
        let handle = SweepHandle::new(&space);
        let n = handle.len();
        let config = SweepConfig { batch_size: 16, use_cache: false };
        let engine = Engine::new(4);
        let full = engine.sweep(&space, &AnalyticBackend, &config);
        // Uneven thirds, including range boundaries that split design runs.
        let cuts = [0, n / 3 + 1, 2 * n / 3 + 5, n];
        for window in cuts.windows(2) {
            let (start, end) = (window[0], window[1]);
            let part = engine.sweep_range(&handle, &AnalyticBackend, &config, start..end);
            assert_eq!(part.stats.scenarios, end - start);
            assert_eq!(part.records.len(), end - start);
            for (record, truth) in part.records.iter().zip(&full.records[start..end]) {
                assert_eq!(record.index, truth.index, "records carry global indices");
                assert_eq!(record.speedup.to_bits(), truth.speedup.to_bits());
                assert_eq!(record.cores.to_bits(), truth.cores.to_bits());
                assert_eq!(record.area.to_bits(), truth.area.to_bits());
            }
        }
    }

    #[test]
    fn one_handle_serves_many_engines_and_warms_their_caches() {
        let space = space();
        let handle = SweepHandle::owned(space.clone());
        let config = SweepConfig { batch_size: 32, use_cache: true };
        let n = handle.len();
        let sim = SimBackend::new();
        // Two engines (distinct caches) share the handle; each answers its
        // second pass entirely from its own cache.
        for threads in [1usize, 2] {
            let engine = Engine::new(threads);
            let first = engine.sweep_range(&handle, &sim, &config, 0..n);
            assert_eq!(first.stats.warm_entries, 0, "cold cache reports no warm entries");
            let second = engine.sweep_range(&handle, &sim, &config, 0..n);
            assert_eq!(second.stats.cache_hits, n as u64);
            assert!(second.stats.warm_entries > 0, "warm sweep reports its warm-start budget");
            for (a, b) in first.records.iter().zip(second.records.iter()) {
                assert_eq!(a.speedup.to_bits(), b.speedup.to_bits());
            }
        }
    }

    #[test]
    fn range_cursor_windows_tile_the_range_exactly_once() {
        let mut cursor = RangeCursor::new(3..20, 5);
        let windows: Vec<_> = std::iter::from_fn(|| cursor.next_window()).collect();
        assert_eq!(windows, vec![3..8, 8..13, 13..18, 18..20]);
        assert!(cursor.is_done());
        assert_eq!(cursor.remaining(), 0);
        assert_eq!(cursor.next_window(), None, "exhausted cursors stay exhausted");

        let mut empty = RangeCursor::new(7..7, 4);
        assert!(empty.is_done());
        assert_eq!(empty.next_window(), None);
    }

    #[test]
    fn a_step_near_usize_max_is_one_window_to_the_range_end() {
        for step in [usize::MAX, usize::MAX - 1, usize::MAX - 16] {
            let mut cursor = RangeCursor::new(3..20, step);
            let windows: Vec<_> = std::iter::from_fn(|| cursor.next_window()).collect();
            assert_eq!(windows, vec![3..20], "step {step}");
            assert!(cursor.is_done());
        }
    }

    #[test]
    fn windowed_cursor_sweeps_are_bit_identical_to_one_shot_sweeps() {
        let space = space();
        let handle = SweepHandle::new(&space);
        let engine = Engine::new(2);
        let config = SweepConfig { batch_size: 16, use_cache: false };
        let full = engine.sweep(&space, &AnalyticBackend, &config);
        // A ragged window size that does not divide the range.
        let range = 5..handle.len() - 3;
        let mut cursor = handle.cursor(range.clone(), 37);
        let mut windowed = Vec::new();
        while let Some(window) = cursor.next_window() {
            assert_eq!(cursor.position(), window.end);
            windowed.extend(engine.sweep_range(&handle, &AnalyticBackend, &config, window).records);
        }
        assert_eq!(windowed.len(), range.len());
        for (record, truth) in windowed.iter().zip(&full.records[range]) {
            assert_eq!(record.index, truth.index);
            assert_eq!(record.speedup.to_bits(), truth.speedup.to_bits());
        }
    }

    #[test]
    fn duplicate_designs_in_a_partially_warm_batch_fill_every_slot() {
        // Two identical designs plus one already-cached design in a single
        // batch: the mixed-batch path must populate the second duplicate from
        // the value its twin just inserted, not leave the NaN placeholder.
        let engine = Engine::new(1);
        let config = SweepConfig { batch_size: 8, use_cache: true };
        let sim = SimBackend::new();
        let warm = ScenarioSpace::new().clear_designs().add_symmetric_grid([8.0]);
        engine.sweep(&warm, &sim, &config);

        let space = ScenarioSpace::new().clear_designs().add_symmetric_grid([4.0, 4.0, 8.0]);
        let result = engine.sweep(&space, &sim, &config);
        assert_eq!(result.stats.cache_hits, 2, "the warm design and the re-probed twin");
        assert_eq!(result.stats.valid, 3, "every duplicate slot must be filled");
        assert_eq!(result.records[0].speedup.to_bits(), result.records[1].speedup.to_bits());
    }
}
