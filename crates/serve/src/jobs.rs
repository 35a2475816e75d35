//! # Durable sweep jobs — checkpoint/resume on top of the planner
//!
//! A *job* is a prepared-space sweep a client submits once and walks away
//! from: a background runner thread pulls fixed-size index windows through
//! [`SweepService::sweep_handle`] — the same admission gate and coalescer
//! every interactive query crosses — and records each completed window in
//! a crash-safe **checkpoint**:
//!
//! * a versioned, CRC-guarded [`Manifest`] (`<id>.manifest`, JSON body
//!   behind a checksum line) holding the space itself, its fingerprint,
//!   the window geometry and the completed-window set, written atomically
//!   (tmp file + fsync + rename, see [`atomic_write`]);
//! * one binary **cache segment spill** (`cache.seg`, the
//!   [`EvalCache`] segment format), so a restarted process re-evaluates
//!   only the windows the manifest says are incomplete and answers the
//!   rest from the warmed cache. A service whose backend does not memoise
//!   ([`SweepService::memoises`]) spills and warms nothing: its answers
//!   are recomputed, which costs less than loading them would.
//!
//! Failed windows are retried with capped exponential backoff and
//! deterministic jitter (honouring the admission gate's
//! `estimated_cost_ms` on busy rejections); a run of
//! [`JobConfig::failure_cap`] consecutive failures parks the job as
//! `failed` with the last error as its inspectable reason — `resume`
//! re-queues it once the fault clears. Cancellation is graceful: the
//! runner finishes the in-flight window, checkpoints, and parks the job
//! as `cancelled`.
//!
//! Restore is strictly validated but never fatal: a manifest that fails
//! its checksum, version check or semantic validation is skipped with a
//! [warning](mp_obs::metrics::Registry::warn) and the job simply does not
//! exist on the restarted server; a damaged cache segment degrades to a
//! cold cache. Corruption costs warmth, not correctness — window
//! evaluation is deterministic, so re-running a window that was already
//! complete produces identical records.
//!
//! Dropping the [`JobManager`] stops the runner **without** a final
//! checkpoint — deliberately crash-equivalent, so tests (and unclean
//! shutdowns) exercise exactly the recovery path a `kill -9` leaves
//! behind. Graceful shutdown is spelled `cancel`.
//!
//! [`EvalCache`]: mp_dse::cache::EvalCache

use std::collections::BTreeMap;
use std::io::Write as _;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::thread::JoinHandle;
use std::time::Instant;

use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use mp_dse::cache::crc32;
use mp_dse::engine::space_fingerprint;
use mp_dse::scenario::ScenarioSpace;
use mp_obs::hist::Histogram;
use mp_obs::metrics::{Counter, Gauge};
use mp_obs::profile::thread_lane;

use crate::client::RetryPolicy;
use crate::protocol::{JobSnapshot, SpaceSpec, DEFAULT_CHUNK};
use crate::service::{ServeError, ServeErrorKind, SweepService};

/// Version tag every manifest carries; a bump invalidates old manifests
/// (they restore as "skipped with a warning", not as garbage jobs).
pub const MANIFEST_VERSION: &str = "mp-jobs/1";

fn invalid(message: impl Into<String>) -> ServeError {
    ServeError { kind: ServeErrorKind::Invalid, message: message.into(), estimated_cost_ms: 0.0 }
}

/// Write `bytes` to `path` atomically: write + fsync a sibling tmp file,
/// rename it over `path`, then fsync the parent directory so the rename
/// itself is durable. Readers either see the old complete file or the new
/// complete file — never a torn write. (The CRC trailers on manifests and
/// segments are belt-and-braces for filesystems that violate this.)
pub fn atomic_write(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    {
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(bytes)?;
        file.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    if let Some(parent) = path.parent() {
        if let Ok(dir) = std::fs::File::open(parent) {
            let _ = dir.sync_all();
        }
    }
    Ok(())
}

/// Runner tuning. The defaults suit production cadence; tests shrink the
/// backoff so a parked-after-faults assertion does not sleep for seconds.
#[derive(Debug, Clone)]
pub struct JobConfig {
    /// Checkpoint after this many newly completed windows when a submit
    /// passes `checkpoint_every = 0` (a terminal transition always
    /// checkpoints regardless of cadence).
    pub checkpoint_every: usize,
    /// Park the job as `failed` after this many *consecutive* window
    /// failures (any success resets the run).
    pub failure_cap: u32,
    /// Backoff schedule between failed window attempts.
    pub retry: RetryPolicy,
}

impl Default for JobConfig {
    fn default() -> Self {
        JobConfig { checkpoint_every: 8, failure_cap: 5, retry: RetryPolicy::backoff_ms(10, 1_000) }
    }
}

/// Lifecycle state. Terminal-until-resumed states (`Suspended`,
/// `Cancelled`, `Failed`, `Completed`) are exactly the ones
/// [`JobSnapshot::is_settled`] reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum JobState {
    Queued,
    Running,
    /// Restored from a manifest; waits for an explicit `resume`.
    Suspended,
    /// Cancel requested while running; the runner parks it `Cancelled`
    /// after the in-flight window and a final checkpoint.
    Cancelling,
    Cancelled,
    Completed,
    Failed,
}

impl JobState {
    fn name(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Suspended => "suspended",
            JobState::Cancelling => "cancelling",
            JobState::Cancelled => "cancelled",
            JobState::Completed => "completed",
            JobState::Failed => "failed",
        }
    }

    fn parse(name: &str) -> Option<JobState> {
        Some(match name {
            "queued" => JobState::Queued,
            "running" => JobState::Running,
            "suspended" => JobState::Suspended,
            "cancelling" => JobState::Cancelling,
            "cancelled" => JobState::Cancelled,
            "completed" => JobState::Completed,
            "failed" => JobState::Failed,
            _ => return None,
        })
    }
}

/// Mutable half of a job, behind one mutex.
struct JobInner {
    state: JobState,
    reason: String,
    /// `completed[i]` — window `i` evaluated and recorded.
    completed: Vec<bool>,
    retries: u64,
    checkpoints: u64,
    /// Windows completed since the last checkpoint.
    dirty: usize,
}

/// One durable sweep job: immutable geometry plus a mutex-guarded
/// progress record. The runner owns state transitions while `Running`;
/// the verb handlers own them otherwise.
struct Job {
    id: String,
    space: ScenarioSpace,
    fingerprint: u64,
    start: usize,
    end: usize,
    window: usize,
    checkpoint_every: usize,
    cancel: AtomicBool,
    inner: Mutex<JobInner>,
}

/// The windows a job over `range` runs, in order: `window` scenarios each,
/// the last one cut at `range.end`. These are the windows a
/// [`RangeCursor`](mp_dse::engine::RangeCursor) over `range` hands out, and
/// the one place a job's geometry is tiled.
fn windows(range: Range<usize>, window: usize) -> impl ExactSizeIterator<Item = Range<usize>> {
    let end = range.end;
    // Saturating: a window near `usize::MAX` is one window to the end.
    range.step_by(window).map(move |lo| lo..lo.saturating_add(window).min(end))
}

impl Job {
    fn windows(&self) -> impl ExactSizeIterator<Item = Range<usize>> {
        windows(self.start..self.end, self.window)
    }

    fn snapshot(&self) -> JobSnapshot {
        let inner = self.inner.lock();
        let windows_completed = inner.completed.iter().filter(|c| **c).count();
        let scenarios_completed = inner
            .completed
            .iter()
            .zip(self.windows())
            .filter(|(c, _)| **c)
            .map(|(_, window)| window.len())
            .sum();
        JobSnapshot {
            id: self.id.clone(),
            state: inner.state.name().to_string(),
            reason: inner.reason.clone(),
            fingerprint: format!("{:016x}", self.fingerprint),
            start: self.start,
            end: self.end,
            window: self.window,
            windows_total: self.windows().len(),
            windows_completed,
            scenarios_completed,
            retries: inner.retries,
            checkpoints: inner.checkpoints,
            checkpoint_every: self.checkpoint_every,
        }
    }

    fn manifest(&self) -> Manifest {
        let inner = self.inner.lock();
        Manifest {
            version: MANIFEST_VERSION.to_string(),
            id: self.id.clone(),
            fingerprint: format!("{:016x}", self.fingerprint),
            start: self.start,
            end: self.end,
            window: self.window,
            checkpoint_every: self.checkpoint_every,
            state: inner.state.name().to_string(),
            reason: inner.reason.clone(),
            retries: inner.retries,
            checkpoints: inner.checkpoints,
            completed: inner
                .completed
                .iter()
                .enumerate()
                .filter(|(_, c)| **c)
                .map(|(i, _)| i)
                .collect(),
            space: self.space.clone(),
        }
    }
}

/// The on-disk form of a job: everything needed to reconstruct it in a
/// fresh process, including the swept space itself (a restarted server
/// must not depend on the submitting client still being around).
///
/// Serialised as a one-line `crc32` hex header over the JSON body that
/// follows — [`Manifest::from_bytes`] refuses torn, truncated or
/// bit-flipped files with a typed message instead of restoring garbage.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Manifest {
    /// Format tag, [`MANIFEST_VERSION`].
    pub version: String,
    /// Job id (also the manifest's file stem).
    pub id: String,
    /// `space`'s content fingerprint, 16 hex digits — revalidated on
    /// restore so a manifest paired with a tampered space is refused.
    pub fingerprint: String,
    /// First flat scenario index (inclusive).
    pub start: usize,
    /// Last flat scenario index (exclusive).
    pub end: usize,
    /// Scenarios per runner window.
    pub window: usize,
    /// Checkpoint cadence, completed windows per checkpoint.
    pub checkpoint_every: usize,
    /// Lifecycle state at checkpoint time.
    pub state: String,
    /// Failure reason (empty unless `state` is `failed`).
    pub reason: String,
    /// Lifetime retry count.
    pub retries: u64,
    /// Lifetime checkpoint count.
    pub checkpoints: u64,
    /// Ordinals of completed windows, strictly increasing.
    pub completed: Vec<usize>,
    /// The swept space, verbatim.
    pub space: ScenarioSpace,
}

impl Manifest {
    /// Serialise: `"{crc32:08x}\n"` followed by the JSON body the checksum
    /// covers.
    pub fn to_bytes(&self) -> Vec<u8> {
        let body = serde_json::to_string(self).expect("manifest serialises");
        let mut bytes = format!("{:08x}\n", crc32(body.as_bytes())).into_bytes();
        bytes.extend_from_slice(body.as_bytes());
        bytes
    }

    /// Parse and fully validate a manifest file: checksum, version,
    /// fingerprint-vs-space agreement and window-set consistency. Any
    /// failure is a descriptive error — callers degrade to "job not
    /// restored", they never panic or restore a half-true record.
    pub fn from_bytes(bytes: &[u8]) -> Result<Manifest, String> {
        let newline =
            bytes.iter().position(|b| *b == b'\n').ok_or("missing checksum header line")?;
        let header = std::str::from_utf8(&bytes[..newline])
            .map_err(|_| "checksum header is not UTF-8".to_string())?;
        let stored = u32::from_str_radix(header, 16)
            .map_err(|_| format!("malformed checksum header `{header}`"))?;
        let body = &bytes[newline + 1..];
        let computed = crc32(body);
        if stored != computed {
            return Err(format!("checksum mismatch: stored {stored:08x}, computed {computed:08x}"));
        }
        let body = std::str::from_utf8(body).map_err(|_| "manifest body is not UTF-8")?;
        let manifest: Manifest =
            serde_json::from_str(body).map_err(|e| format!("malformed manifest body: {e}"))?;
        manifest.validate()?;
        Ok(manifest)
    }

    fn validate(&self) -> Result<(), String> {
        if self.version != MANIFEST_VERSION {
            return Err(format!(
                "version mismatch: found `{}`, expected `{MANIFEST_VERSION}`",
                self.version
            ));
        }
        if JobState::parse(&self.state).is_none() {
            return Err(format!("unknown state `{}`", self.state));
        }
        let fingerprint = format!("{:016x}", space_fingerprint(&self.space));
        if fingerprint != self.fingerprint {
            return Err(format!(
                "fingerprint mismatch: manifest says {}, space hashes to {fingerprint}",
                self.fingerprint
            ));
        }
        if self.window == 0 {
            return Err("window must be positive".to_string());
        }
        if self.start > self.end || self.end > self.space.len() {
            return Err(format!(
                "range {}..{} out of bounds for a {}-scenario space",
                self.start,
                self.end,
                self.space.len()
            ));
        }
        let total = windows(self.start..self.end, self.window).len();
        let mut last: Option<usize> = None;
        for &ordinal in &self.completed {
            if ordinal >= total {
                return Err(format!("completed window {ordinal} out of {total}"));
            }
            if last.is_some_and(|p| ordinal <= p) {
                return Err("completed windows not strictly increasing".to_string());
            }
            last = Some(ordinal);
        }
        Ok(())
    }
}

/// Owns the background runner thread and the job table; attach one to a
/// [`SweepService`] via [`JobManager::new`] and the four `job_*`
/// protocol verbs light up. With a store directory the manager restores
/// manifests (as `suspended` jobs) and warm-starts the cache from
/// spilled segments before accepting work; without one, jobs run
/// in-memory only (no checkpoint files, still retried and cancellable).
pub struct JobManager {
    service: Arc<SweepService>,
    dir: Option<PathBuf>,
    config: JobConfig,
    jobs: Mutex<BTreeMap<String, Arc<Job>>>,
    queue: Mutex<Option<Sender<Arc<Job>>>>,
    runner: Mutex<Option<JoinHandle<()>>>,
    stop: Arc<AtomicBool>,
    seq: AtomicU64,
    metrics: JobMetrics,
}

/// The manager's series (README's metrics catalogue), registered into its
/// service's registry when the manager is built.
struct JobMetrics {
    active: Arc<Gauge>,
    windows_completed: Arc<Counter>,
    retries: Arc<Counter>,
    checkpoint_ms: Arc<Histogram>,
}

impl JobManager {
    /// Build a manager over `service`, restore any prior state from
    /// `dir`, spawn the runner thread and attach the manager to the
    /// service's job verbs. Returns the number of restored jobs alongside
    /// the manager.
    pub fn new(
        service: Arc<SweepService>,
        dir: Option<PathBuf>,
        config: JobConfig,
    ) -> std::io::Result<Arc<JobManager>> {
        if let Some(dir) = &dir {
            std::fs::create_dir_all(dir)?;
        }
        let (sender, receiver) = unbounded::<Arc<Job>>();
        let stop = Arc::new(AtomicBool::new(false));
        let registry = service.registry();
        let metrics = JobMetrics {
            active: registry.gauge("jobs_active"),
            windows_completed: registry.counter("job_windows_completed"),
            retries: registry.counter("job_retries"),
            checkpoint_ms: registry.histogram_ms("job_checkpoint_ms"),
        };
        let manager = Arc::new(JobManager {
            service,
            dir,
            config,
            jobs: Mutex::new(BTreeMap::new()),
            queue: Mutex::new(Some(sender)),
            runner: Mutex::new(None),
            stop: Arc::clone(&stop),
            seq: AtomicU64::new(1),
            metrics,
        });
        manager.restore();
        manager.service.attach_jobs(Arc::downgrade(&manager));

        let weak = Arc::downgrade(&manager);
        let handle = std::thread::Builder::new()
            .name("mp-serve-jobs".to_string())
            .spawn(move || Self::run_loop(weak, receiver, stop))
            .expect("spawn job runner");
        *manager.runner.lock() = Some(handle);
        Ok(manager)
    }

    /// Scan the store directory for `*.manifest` files and rebuild their
    /// jobs. Anything that was in flight when the previous process died
    /// restores as `suspended` (progress intact, awaiting `resume`);
    /// settled states restore verbatim. Damaged files are skipped with a
    /// warning. Cache segments load afterwards so resumed windows start
    /// warm.
    fn restore(&self) {
        let Some(dir) = &self.dir else { return };
        let entries = match std::fs::read_dir(dir) {
            Ok(entries) => entries,
            Err(_) => return,
        };
        let started = Instant::now();
        let mut restored = 0usize;
        let mut collected: Vec<PathBuf> = Vec::new();
        for entry in entries.flatten() {
            let path = entry.path();
            if path.extension().and_then(|e| e.to_str()) != Some("manifest") {
                continue;
            }
            let bytes = match std::fs::read(&path) {
                Ok(bytes) => bytes,
                Err(e) => {
                    self.warn(&format!("unreadable manifest {}: {e}", path.display()));
                    continue;
                }
            };
            let manifest = match Manifest::from_bytes(&bytes) {
                Ok(manifest) => manifest,
                Err(e) => {
                    self.warn(&format!("skipping manifest {} (cold start): {e}", path.display()));
                    continue;
                }
            };
            let state = match JobState::parse(&manifest.state).expect("validated") {
                // In-flight states cannot survive the process that ran
                // them; park as suspended until an explicit resume.
                JobState::Queued | JobState::Running | JobState::Cancelling => JobState::Suspended,
                settled => settled,
            };
            let total = windows(manifest.start..manifest.end, manifest.window).len();
            let mut completed = vec![false; total];
            for &ordinal in &manifest.completed {
                completed[ordinal] = true;
            }
            let fingerprint = space_fingerprint(&manifest.space);
            if let Some(seq) = manifest.id.strip_prefix('j').and_then(|s| s.parse::<u64>().ok()) {
                let next = self.seq.load(Ordering::Relaxed).max(seq + 1);
                self.seq.store(next, Ordering::Relaxed);
            }
            let job = Arc::new(Job {
                id: manifest.id.clone(),
                space: manifest.space,
                fingerprint,
                start: manifest.start,
                end: manifest.end,
                // As written, even above `DEFAULT_CHUNK`: the completed
                // ordinals index this geometry.
                window: manifest.window,
                checkpoint_every: manifest.checkpoint_every,
                cancel: AtomicBool::new(false),
                inner: Mutex::new(JobInner {
                    state,
                    reason: manifest.reason,
                    completed,
                    retries: manifest.retries,
                    checkpoints: manifest.checkpoints,
                    dirty: 0,
                }),
            });
            self.jobs.lock().insert(manifest.id, job);
            restored += 1;
            // A completed manifest is a GC the previous process crashed out
            // of (completion normally collects it immediately): the job
            // stays queryable in memory, the file goes.
            if state == JobState::Completed {
                collected.push(path);
            }
        }
        for path in collected {
            if let Err(e) = std::fs::remove_file(&path) {
                self.warn(&format!("manifest GC {} failed: {e}", path.display()));
            }
        }
        // With every manifest collected there is nothing left to resume:
        // prune the orphaned segments before warming from them.
        Self::prune_orphan_segments(dir);
        let warmed = self.service.load_cache_segments(dir);
        if restored > 0 || warmed > 0 {
            self.warn(&format!(
                "restored {restored} job(s), warmed {warmed} cache entr(ies) from {} in {:.1} ms",
                dir.display(),
                started.elapsed().as_secs_f64() * 1e3
            ));
        }
    }

    /// Submit a sweep over `range` of `space` as a durable job. `chunk`
    /// is the window size in scenarios, at most [`DEFAULT_CHUNK`] (`0` and
    /// anything larger mean [`DEFAULT_CHUNK`]);
    /// `checkpoint_every` the cadence in completed windows (`0` = the
    /// manager's [`JobConfig::checkpoint_every`]). The initial manifest is
    /// persisted before this returns, so a submitted job survives a crash
    /// that lands before its first completed window.
    pub fn submit(
        &self,
        space: ScenarioSpace,
        range: Range<usize>,
        chunk: usize,
        checkpoint_every: usize,
    ) -> Result<JobSnapshot, ServeError> {
        let n = space.len();
        if range.start >= range.end || range.end > n {
            return Err(invalid(format!(
                "job range {}..{} invalid for a {n}-scenario space",
                range.start, range.end
            )));
        }
        let window = if chunk == 0 { DEFAULT_CHUNK } else { chunk.min(DEFAULT_CHUNK) };
        let checkpoint_every =
            if checkpoint_every == 0 { self.config.checkpoint_every } else { checkpoint_every };
        let fingerprint = space_fingerprint(&space);
        let id = format!("j{:05}", self.seq.fetch_add(1, Ordering::Relaxed));
        let total = windows(range.clone(), window).len();
        let job = Arc::new(Job {
            id: id.clone(),
            space,
            fingerprint,
            start: range.start,
            end: range.end,
            window,
            checkpoint_every,
            cancel: AtomicBool::new(false),
            inner: Mutex::new(JobInner {
                state: JobState::Queued,
                reason: String::new(),
                completed: vec![false; total],
                retries: 0,
                checkpoints: 0,
                dirty: 0,
            }),
        });
        self.jobs.lock().insert(id, Arc::clone(&job));
        self.persist(&job);
        self.metrics.active.add(1);
        self.enqueue(&job);
        Ok(job.snapshot())
    }

    /// The current snapshot of job `id`.
    pub fn status(&self, id: &str) -> Result<JobSnapshot, ServeError> {
        Ok(self.get(id)?.snapshot())
    }

    /// Request cancellation. A queued job parks `cancelled` immediately
    /// (with a checkpoint); a running one transitions to `cancelling` and
    /// the runner parks it after the in-flight window. Settled jobs other
    /// than `completed` also park `cancelled` (a no-op with a clearer
    /// state); cancelling a completed job is an error.
    pub fn cancel(&self, id: &str) -> Result<JobSnapshot, ServeError> {
        let job = self.get(id)?;
        let checkpoint = {
            let mut inner = job.inner.lock();
            match inner.state {
                JobState::Completed => {
                    return Err(invalid(format!("job `{id}` already completed")))
                }
                JobState::Running => {
                    inner.state = JobState::Cancelling;
                    job.cancel.store(true, Ordering::Relaxed);
                    false
                }
                JobState::Cancelling | JobState::Cancelled => false,
                JobState::Queued => {
                    inner.state = JobState::Cancelled;
                    self.metrics.active.sub(1);
                    true
                }
                JobState::Suspended | JobState::Failed => {
                    inner.state = JobState::Cancelled;
                    true
                }
            }
        };
        if checkpoint {
            self.checkpoint(&job);
        }
        Ok(job.snapshot())
    }

    /// Re-queue a settled job; progress is kept, only incomplete windows
    /// will be evaluated. Returns the job as this call left it — `queued`
    /// once re-queued, taken before the runner can pick it up. Resuming a
    /// job that is already queued, running or completed is an idempotent
    /// no-op returning its snapshot.
    pub fn resume(&self, id: &str) -> Result<JobSnapshot, ServeError> {
        let job = self.get(id)?;
        let requeue = {
            let mut inner = job.inner.lock();
            match inner.state {
                JobState::Queued
                | JobState::Running
                | JobState::Cancelling
                | JobState::Completed => false,
                JobState::Suspended | JobState::Cancelled | JobState::Failed => {
                    inner.state = JobState::Queued;
                    inner.reason.clear();
                    job.cancel.store(false, Ordering::Relaxed);
                    true
                }
            }
        };
        let snapshot = job.snapshot();
        if requeue {
            self.metrics.active.add(1);
            self.enqueue(&job);
        }
        Ok(snapshot)
    }

    /// Snapshots of every known job, id-ordered.
    pub fn list(&self) -> Vec<JobSnapshot> {
        self.jobs.lock().values().map(|job| job.snapshot()).collect()
    }

    fn get(&self, id: &str) -> Result<Arc<Job>, ServeError> {
        self.jobs.lock().get(id).cloned().ok_or_else(|| invalid(format!("unknown job id `{id}`")))
    }

    fn enqueue(&self, job: &Arc<Job>) {
        if let Some(sender) = self.queue.lock().as_ref() {
            let _ = sender.send(Arc::clone(job));
        }
    }

    fn run_loop(manager: Weak<JobManager>, queue: Receiver<Arc<Job>>, stop: Arc<AtomicBool>) {
        while let Ok(job) = queue.recv() {
            if stop.load(Ordering::Relaxed) {
                break;
            }
            Self::run_job(&manager, &job);
        }
    }

    /// Drive one job to a settled state — or abandon it mid-flight when the
    /// manager is stopping or its last external handle dropped, leaving
    /// recovery to the last checkpoint.
    ///
    /// The runner deliberately holds a strong manager reference only **one
    /// window at a time**: the external owner dropping its handle must
    /// stop the job at the next window boundary (that is what makes a
    /// manager drop crash-equivalent), which a strong reference held
    /// across the whole job would quietly prevent.
    fn run_job(weak: &Weak<JobManager>, job: &Arc<Job>) {
        let handle = {
            let Some(manager) = weak.upgrade() else { return };
            {
                let mut inner = job.inner.lock();
                if inner.state != JobState::Queued {
                    // Cancelled while waiting in the queue; the gauge was
                    // already settled by whoever transitioned it.
                    return;
                }
                inner.state = JobState::Running;
            }
            match manager.service.resolve_handle(&SpaceSpec::Explicit(job.space.clone())) {
                Ok(handle) => handle,
                Err(e) => {
                    return manager.park_failed(job, format!("prepare failed: {}", e.message))
                }
            }
        };
        let mut consecutive = 0u32;
        for (ordinal, window) in job.windows().enumerate() {
            if job.inner.lock().completed[ordinal] {
                continue;
            }
            loop {
                // Abrupt abandon on stop or owner teardown: in-memory state
                // stays Running but the process is tearing down; durable
                // truth is the last checkpoint, exactly as after a crash.
                let Some(manager) = weak.upgrade() else { return };
                if manager.stop.load(Ordering::Relaxed) {
                    return;
                }
                if job.cancel.load(Ordering::Relaxed) {
                    return manager.park_cancelled(job);
                }
                match manager.service.sweep_handle(&handle, Some(window.clone())) {
                    Ok(_result) => {
                        // Records are not stored: a job's product is the
                        // warmed cache plus the completion record; clients
                        // fetch records with an (instant) warm sweep.
                        consecutive = 0;
                        let checkpoint = {
                            let mut inner = job.inner.lock();
                            inner.completed[ordinal] = true;
                            inner.dirty += 1;
                            inner.dirty >= job.checkpoint_every
                        };
                        manager.metrics.windows_completed.inc();
                        if checkpoint {
                            manager.checkpoint(job);
                        }
                        break;
                    }
                    Err(e) => {
                        consecutive += 1;
                        job.inner.lock().retries += 1;
                        manager.metrics.retries.inc();
                        if consecutive >= manager.config.failure_cap {
                            return manager.park_failed(
                                job,
                                format!(
                                    "window {ordinal} failed {consecutive} consecutive attempts; last error: {}",
                                    e.message
                                ),
                            );
                        }
                        let delay = manager.config.retry.delay(
                            consecutive,
                            job.fingerprint ^ ordinal as u64,
                            e.estimated_cost_ms,
                        );
                        drop(manager);
                        std::thread::sleep(delay);
                    }
                }
            }
        }
        let Some(manager) = weak.upgrade() else { return };
        {
            let mut inner = job.inner.lock();
            inner.state = JobState::Completed;
        }
        manager.metrics.active.sub(1);
        // Final durable status write first, then collect the artifacts: a
        // crash between the two re-runs the GC on restore, never loses the
        // completion record.
        manager.checkpoint(job);
        manager.gc_terminal(job);
    }

    /// Log a `jobs` warning on the service's registry.
    fn warn(&self, message: &str) {
        self.service.registry().warn("jobs", message);
    }

    fn park_failed(&self, job: &Arc<Job>, reason: String) {
        self.warn(&format!("job {} parked failed: {reason}", job.id));
        {
            let mut inner = job.inner.lock();
            inner.state = JobState::Failed;
            inner.reason = reason;
        }
        self.metrics.active.sub(1);
        self.checkpoint(job);
    }

    fn park_cancelled(&self, job: &Arc<Job>) {
        {
            let mut inner = job.inner.lock();
            inner.state = JobState::Cancelled;
        }
        job.cancel.store(false, Ordering::Relaxed);
        self.metrics.active.sub(1);
        self.checkpoint(job);
    }

    /// Persist a checkpoint: spill the cache, then atomically
    /// replace the manifest — the manifest is the commit point, and a
    /// crash between the two only costs cache warmth (window evaluation
    /// is deterministic). Write failures degrade to a warning; the job
    /// keeps running with its previous durable state.
    fn checkpoint(&self, job: &Arc<Job>) {
        let started = Instant::now();
        let profiler = self.service.registry().profiler();
        let span = profiler
            .is_enabled()
            .then(|| profiler.span(&format!("checkpoint {}", job.id), "checkpoint", thread_lane()));
        if let Some(dir) = &self.dir {
            if let Err(e) = self.service.save_cache_segments(dir) {
                self.warn(&format!("cache spill to {} failed: {e}", dir.display()));
            }
        }
        self.persist(job);
        // Recorded before it is counted: a snapshot never counts a
        // checkpoint whose span is missing.
        drop(span);
        {
            let mut inner = job.inner.lock();
            inner.checkpoints += 1;
            inner.dirty = 0;
        }
        self.metrics.checkpoint_ms.record(started.elapsed().as_secs_f64() * 1_000.0);
    }

    /// Atomically write the job's manifest (durable managers only).
    fn persist(&self, job: &Arc<Job>) {
        let Some(dir) = &self.dir else { return };
        let path = dir.join(format!("{}.manifest", job.id));
        if let Err(e) = atomic_write(&path, &job.manifest().to_bytes()) {
            self.warn(&format!("manifest write {} failed: {e}", path.display()));
        }
    }

    /// Collect a completed job's durable artifacts *after* its final
    /// checkpoint committed the terminal state: remove the manifest, then
    /// — once the directory holds no manifest at all — the shared cache
    /// segments (a segment is only a warm start for some manifest's
    /// resume; with none left it is an orphan). Only `completed` jobs are
    /// collected: `cancelled`/`failed` manifests are the durable resume
    /// points `job_resume` honours across restarts.
    fn gc_terminal(&self, job: &Arc<Job>) {
        let Some(dir) = &self.dir else { return };
        let manifest = dir.join(format!("{}.manifest", job.id));
        if let Err(e) = std::fs::remove_file(&manifest) {
            self.warn(&format!("manifest GC {} failed: {e}", manifest.display()));
            return;
        }
        Self::prune_orphan_segments(dir);
    }

    /// Delete spilled cache segments — and stray `.tmp` leftovers of torn
    /// [`atomic_write`]s — once no manifest remains to resume from. Keeps
    /// everything while *any* manifest file exists, even an unreadable
    /// one: a conservative reader cannot tell a damaged resume point from
    /// a foreign file, and segments are cheap to keep by comparison.
    fn prune_orphan_segments(dir: &Path) {
        let Ok(entries) = std::fs::read_dir(dir) else { return };
        let mut orphans = Vec::new();
        for entry in entries.flatten() {
            let path = entry.path();
            match path.extension().and_then(|e| e.to_str()) {
                Some("manifest") => return,
                Some("seg") | Some("tmp") => orphans.push(path),
                _ => {}
            }
        }
        for path in orphans {
            let _ = std::fs::remove_file(&path);
        }
    }
}

impl JobManager {
    /// Stop the runner **without** a final checkpoint and wait for it to
    /// exit — crash-equivalent by design (see the module docs): the
    /// in-flight window, if any, is abandoned between sweeps and durable
    /// state is whatever the last checkpoint left. `Drop` calls this, but
    /// note that when the runner itself holds a transient strong reference
    /// the drop impl runs *on the runner thread* (which cannot join
    /// itself); call `kill()` explicitly when you need the runner provably
    /// quiesced — e.g. before reopening the store directory — rather than
    /// relying on drop order.
    pub fn kill(&self) {
        self.stop.store(true, Ordering::Relaxed);
        // Closing the channel wakes the runner's blocking recv.
        *self.queue.lock() = None;
        if let Some(handle) = self.runner.lock().take() {
            if handle.thread().id() != std::thread::current().id() {
                let _ = handle.join();
            }
        }
    }
}

impl Drop for JobManager {
    fn drop(&mut self) {
        self.kill();
    }
}

#[cfg(test)]
mod tests {
    use mp_dse::engine::RangeCursor;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Any range, any window up to `usize::MAX`: a job runs exactly the
        /// windows a cursor over its range hands out, and counts them.
        #[test]
        fn job_windows_are_the_cursor_windows(
            start in prop_oneof![0usize..1024, 0usize..usize::MAX, Just(usize::MAX)],
            window in prop_oneof![1usize..64, 1usize..usize::MAX, Just(usize::MAX)],
            full in 0usize..8,
            tail in 0usize..usize::MAX,
        ) {
            // At most `full + 1` windows, however large the numbers are.
            let len = window.saturating_mul(full).saturating_add(tail % window);
            let range = start..start.saturating_add(len);
            let mut cursor = RangeCursor::new(range.clone(), window);
            let expected: Vec<_> = std::iter::from_fn(|| cursor.next_window()).collect();
            let tiled = super::windows(range.clone(), window);
            prop_assert_eq!(tiled.len(), expected.len());
            prop_assert_eq!(tiled.collect::<Vec<_>>(), expected);
        }
    }
}
