//! Lifecycle tests of the durable-job layer: submit → run → complete with
//! checkpoints on disk, failure-cap parking with an inspectable reason and
//! resume-after-fault, graceful cancellation, and the protocol's `job_*`
//! verb dispatch (with and without a manager attached).
//!
//! The crash/restart recovery drill lives in `tests/job_recovery.rs`.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use merging_phases::dse::prelude::*;
use mp_dse::fault::{FaultPlan, FaultyBackend};
use mp_serve::prelude::*;

fn space(points: usize) -> ScenarioSpace {
    // Default budget, symmetric designs only: every scenario is valid, so
    // a fully swept space means a fully warm cache.
    ScenarioSpace::new()
        .clear_designs()
        .add_symmetric_grid((0..points).map(|i| 1.0 + i as f64 * 0.5))
}

fn service(shards: usize, backend: Arc<dyn EvalBackend + Send + Sync>) -> Arc<SweepService> {
    Arc::new(SweepService::new(
        backend,
        &ServiceConfig { shards, threads_per_shard: 1, ..ServiceConfig::default() },
    ))
}

/// A per-test scratch directory, removed on drop.
struct StoreDir(PathBuf);

impl StoreDir {
    fn new(tag: &str) -> StoreDir {
        let dir = std::env::temp_dir().join(format!("mp-serve-jobs-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create store dir");
        StoreDir(dir)
    }
}

impl Drop for StoreDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn wait_for(
    manager: &JobManager,
    id: &str,
    timeout: Duration,
    good: impl Fn(&JobSnapshot) -> bool,
) -> JobSnapshot {
    let deadline = Instant::now() + timeout;
    loop {
        let snapshot = manager.status(id).expect("job exists");
        if good(&snapshot) {
            return snapshot;
        }
        assert!(
            Instant::now() < deadline,
            "timed out waiting on job {id}; last snapshot: {snapshot:?}"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Read the manifest at `path` once it reports `state` — the runner flips
/// the in-memory state first and persists the final checkpoint just after,
/// so a disk read can trail a settled status by a moment.
fn wait_manifest(path: &std::path::Path, state: &str) -> Manifest {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if let Ok(bytes) = std::fs::read(path) {
            let manifest = Manifest::from_bytes(&bytes).expect("manifest stays valid");
            if manifest.state == state {
                return manifest;
            }
            assert!(
                Instant::now() < deadline,
                "manifest at {} never reached `{state}`: {manifest:?}",
                path.display()
            );
        } else {
            assert!(Instant::now() < deadline, "manifest at {} never appeared", path.display());
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Wait for the jobs dir to settle clean: no manifests, cache segments or
/// `.tmp` leftovers. The completion GC runs just after the final status
/// checkpoint, so a settled status can precede the unlinks by a moment.
fn wait_clean(dir: &std::path::Path) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let leftovers: Vec<String> = std::fs::read_dir(dir)
            .map(|entries| {
                entries
                    .flatten()
                    .map(|e| e.file_name().to_string_lossy().into_owned())
                    .filter(|name| {
                        name.ends_with(".manifest")
                            || name.ends_with(".seg")
                            || name.ends_with(".tmp")
                    })
                    .collect()
            })
            .unwrap_or_default();
        if leftovers.is_empty() {
            return;
        }
        assert!(Instant::now() < deadline, "jobs dir never came clean; leftovers: {leftovers:?}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Fast-backoff config so failure-path tests don't sleep for seconds.
fn test_config(failure_cap: u32) -> JobConfig {
    JobConfig { checkpoint_every: 2, failure_cap, retry: RetryPolicy::backoff_ms(1, 4) }
}

#[test]
fn submitted_job_completes_checkpoints_and_warms_the_cache() {
    // On the simulator, a backend that memoises: its checkpoints spill
    // the cache and a restart warms from the spill.
    let store = StoreDir::new("lifecycle");
    let space = space(512);
    let service = service(2, Arc::new(SimBackend::new()));
    let manager =
        JobManager::new(Arc::clone(&service), Some(store.0.clone()), test_config(5)).unwrap();

    let submitted = manager.submit(space.clone(), 0..space.len(), 64, 2).unwrap();
    assert_eq!(submitted.windows_total, 8);
    assert_eq!(submitted.window, 64);
    assert_eq!(submitted.checkpoint_every, 2);

    let done =
        wait_for(&manager, &submitted.id, Duration::from_secs(30), |s| s.state == "completed");
    assert_eq!(done.windows_completed, done.windows_total);
    assert_eq!(done.scenarios_completed, space.len());
    assert!(done.checkpoints >= 2, "cadence-2 over 8 windows checkpoints repeatedly: {done:?}");

    // Completion garbage-collects the durable artifacts: the manifest and
    // — with no other job left to resume — the spilled cache segments.
    wait_clean(&store.0);
    assert!(!store.0.join(format!("{}.manifest", done.id)).exists());
    assert!(!store.0.join("cache.seg").exists());

    // The job's product: a warm cache answering the whole space, records
    // bit-identical to a direct engine sweep.
    let warm = service.sweep(&space, None).unwrap();
    assert_eq!(warm.stats.cache_hits as usize, space.len());
    let direct = Engine::new(1).sweep(&space, &SimBackend::new(), &SweepConfig::default());
    for (a, b) in warm.records.iter().zip(direct.records.iter()) {
        assert_eq!(a.speedup.to_bits(), b.speedup.to_bits());
    }

    // A restart warms from the one spilled segment file.
    assert_eq!(service.save_cache_segments(&store.0).unwrap(), space.len());
    let restarted = self::service(2, Arc::new(SimBackend::new()));
    assert_eq!(restarted.load_cache_segments(&store.0), space.len(), "the spill loads");
    let warm = restarted.sweep(&space, None).unwrap();
    assert_eq!(warm.stats.warm_entries, space.len());
    assert_eq!(warm.stats.cache_hits as usize, space.len(), "every restored entry answers");
    assert_eq!(warm.stats.cache_misses, 0);
}

#[test]
fn persistent_faults_park_the_job_failed_and_resume_completes_after_clearing() {
    let space = space(256);
    let plan = FaultPlan::new();
    // The simulator memoises, so the resumed job's product is a warm cache.
    let faulty: Arc<dyn EvalBackend + Send + Sync> =
        Arc::new(FaultyBackend::new(SimBackend::new(), Arc::clone(&plan)));
    let service = service(2, faulty);
    let manager = JobManager::new(Arc::clone(&service), None, test_config(3)).unwrap();

    plan.fail_all();
    let submitted = manager.submit(space.clone(), 0..space.len(), 64, 1).unwrap();
    let failed =
        wait_for(&manager, &submitted.id, Duration::from_secs(30), |s| s.state == "failed");
    assert!(
        failed.reason.contains("injected fault"),
        "the failure cause must be inspectable via status: {failed:?}"
    );
    assert!(failed.retries >= 3, "every attempt of the capped run counts: {failed:?}");
    assert_eq!(failed.windows_completed, 0);

    // Cancelling a failed job is allowed (clearer state), resume un-parks.
    plan.clear_fault();
    let resumed = manager.resume(&submitted.id).unwrap();
    // The snapshot can already show "running" if the runner wins the race.
    assert!(
        resumed.state == "queued" || resumed.state == "running",
        "resume un-parks the job: {resumed:?}"
    );
    assert!(resumed.reason.is_empty(), "resume clears the parked reason");
    let done =
        wait_for(&manager, &submitted.id, Duration::from_secs(30), |s| s.state == "completed");
    assert_eq!(done.windows_completed, done.windows_total);
    let warm = service.sweep(&space, None).unwrap();
    assert_eq!(warm.stats.cache_hits as usize, space.len());
}

#[test]
fn one_shot_fault_is_retried_in_place_and_the_job_still_completes() {
    let space = space(256);
    let plan = FaultPlan::new();
    let faulty: Arc<dyn EvalBackend + Send + Sync> =
        Arc::new(FaultyBackend::new(AnalyticBackend, Arc::clone(&plan)));
    let service = service(1, faulty);
    let manager = JobManager::new(Arc::clone(&service), None, test_config(5)).unwrap();

    // The second batch any thread evaluates panics once; the runner's
    // retry re-sweeps that window and succeeds.
    plan.fail_batch(1);
    let submitted = manager.submit(space.clone(), 0..space.len(), 64, 1).unwrap();
    let done =
        wait_for(&manager, &submitted.id, Duration::from_secs(30), |s| s.state == "completed");
    assert!(done.retries >= 1, "the injected failure must be visible as a retry: {done:?}");
    assert_eq!(done.windows_completed, done.windows_total);
}

/// On the analytic backend, which does not memoise, every checkpoint
/// writes a manifest and no cache segment; the resumed job recomputes and
/// its answers are bit-identical to a direct sweep.
#[test]
fn cancel_is_graceful_and_a_cancelled_job_resumes_to_completion() {
    let store = StoreDir::new("cancel");
    let space = space(2048);
    let plan = FaultPlan::new();
    plan.set_latency(Duration::from_millis(20));
    let faulty: Arc<dyn EvalBackend + Send + Sync> =
        Arc::new(FaultyBackend::new(AnalyticBackend, Arc::clone(&plan)));
    let service = service(2, faulty);
    let manager =
        JobManager::new(Arc::clone(&service), Some(store.0.clone()), test_config(5)).unwrap();

    let submitted = manager.submit(space.clone(), 0..space.len(), 128, 1).unwrap();
    // Let it make some progress, then cancel mid-run.
    wait_for(&manager, &submitted.id, Duration::from_secs(30), |s| s.windows_completed >= 2);
    let cancelling = manager.cancel(&submitted.id).unwrap();
    assert!(
        cancelling.state == "cancelling" || cancelling.state == "cancelled",
        "cancel transitions immediately: {cancelling:?}"
    );
    let parked =
        wait_for(&manager, &submitted.id, Duration::from_secs(30), |s| s.state == "cancelled");
    assert!(parked.windows_completed < parked.windows_total, "cancelled before the end");
    assert!(parked.checkpoints >= 1, "graceful cancel checkpoints before parking");

    // The manifest on disk agrees with the parked snapshot; there is no
    // cache to spill beside it.
    let manifest = wait_manifest(&store.0.join(format!("{}.manifest", parked.id)), "cancelled");
    assert_eq!(manifest.completed.len(), parked.windows_completed);
    assert!(!store.0.join("cache.seg").exists(), "nothing to spill");

    // No faults to clear: speed the rest up and resume to completion.
    plan.set_latency(Duration::ZERO);
    manager.resume(&parked.id).unwrap();
    let done = wait_for(&manager, &parked.id, Duration::from_secs(30), |s| s.state == "completed");
    assert_eq!(done.windows_completed, done.windows_total);
    // Cancelling a completed job is refused.
    assert!(manager.cancel(&done.id).is_err());
    // The cancelled manifest was a live resume point and survived; the
    // eventual completion collects it.
    wait_clean(&store.0);
    // The job's product, recomputed: bit-identical to a direct sweep, and
    // the cache was never touched.
    let again = service.sweep(&space, None).unwrap();
    assert_eq!(again.stats.cache_misses as usize, space.len());
    let direct = Engine::new(1).sweep(&space, &AnalyticBackend, &SweepConfig::default());
    for (a, b) in again.records.iter().zip(direct.records.iter()) {
        assert_eq!(a.speedup.to_bits(), b.speedup.to_bits());
    }
    // Every scenario the job and the sweep asked for was computed; nothing
    // was cached.
    let cache = service.stats().cache;
    assert_eq!(cache, CacheStats { misses: cache.misses, ..EvalCache::new().stats() });
}

#[test]
fn restart_after_completion_finds_a_clean_dir_and_sweeps_crash_leftovers() {
    let store = StoreDir::new("gc-restart");
    let space = space(256);
    {
        let service = service(2, Arc::new(AnalyticBackend));
        let manager =
            JobManager::new(Arc::clone(&service), Some(store.0.clone()), test_config(5)).unwrap();
        let submitted = manager.submit(space.clone(), 0..space.len(), 64, 2).unwrap();
        wait_for(&manager, &submitted.id, Duration::from_secs(30), |s| s.state == "completed");
        wait_clean(&store.0);
        manager.kill();
    }

    // Second process generation over the same dir: nothing to re-parse,
    // nothing restored, dir still clean.
    {
        let service = service(2, Arc::new(AnalyticBackend));
        let manager =
            JobManager::new(Arc::clone(&service), Some(store.0.clone()), test_config(5)).unwrap();
        assert!(manager.list().is_empty(), "a completed job leaves no manifest to restore");
        wait_clean(&store.0);
        manager.kill();
    }

    // Crash-equivalent leftovers: a *completed* manifest the previous
    // process died before collecting, plus an orphaned cache segment and a
    // torn tmp file. Fabricate the manifest by settling a real queued one.
    {
        let svc = service(2, Arc::new(AnalyticBackend));
        let manager =
            JobManager::new(Arc::clone(&svc), Some(store.0.clone()), test_config(5)).unwrap();
        let submitted = manager.submit(space.clone(), 0..space.len(), 64, 2).unwrap();
        wait_for(&manager, &submitted.id, Duration::from_secs(30), |s| s.state == "completed");
        wait_clean(&store.0);
        manager.kill();

        let mut manifest = Manifest {
            version: MANIFEST_VERSION.to_string(),
            id: submitted.id.clone(),
            fingerprint: String::new(),
            start: 0,
            end: space.len(),
            window: 64,
            checkpoint_every: 2,
            state: "completed".to_string(),
            reason: String::new(),
            retries: 0,
            checkpoints: 4,
            completed: (0..4).collect(),
            space: space.clone(),
        };
        // Round-trip a real queued manifest for the fingerprint the
        // validator recomputes from the space.
        let probe = JobManager::new(
            service(2, Arc::new(AnalyticBackend)),
            Some(store.0.clone()),
            JobConfig { checkpoint_every: 1_000_000, ..test_config(5) },
        )
        .unwrap();
        probe.kill();
        manifest.fingerprint = {
            let queued = probe.submit(space.clone(), 0..space.len(), 64, 1_000_000).unwrap();
            let path = store.0.join(format!("{}.manifest", queued.id));
            let parsed = wait_manifest(&path, "queued");
            std::fs::remove_file(&path).unwrap();
            parsed.fingerprint
        };
        drop(probe);
        atomic_write(&store.0.join(format!("{}.manifest", manifest.id)), &manifest.to_bytes())
            .unwrap();
        std::fs::write(store.0.join("cache.seg"), b"orphan").unwrap();
        std::fs::write(store.0.join("j99999.manifest.tmp"), b"torn").unwrap();
    }

    // Restore sweeps all three leftovers but keeps the completion record
    // queryable in memory.
    let service = service(2, Arc::new(AnalyticBackend));
    let manager =
        JobManager::new(Arc::clone(&service), Some(store.0.clone()), test_config(5)).unwrap();
    let restored = manager.list();
    assert_eq!(restored.len(), 1, "the completed job restores in memory: {restored:?}");
    assert_eq!(restored[0].state, "completed");
    wait_clean(&store.0);
}

#[test]
fn one_scenario_jobs_complete_at_shard_counts_beyond_the_space() {
    for shards in [4, 8] {
        let space = space(1);
        assert_eq!(space.len(), 1);
        let service = service(shards, Arc::new(SimBackend::new()));
        let manager = JobManager::new(Arc::clone(&service), None, test_config(5)).unwrap();
        let submitted = manager.submit(space.clone(), 0..1, 0, 1).unwrap();
        assert_eq!(submitted.windows_total, 1, "one window at {shards} shards");
        let done =
            wait_for(&manager, &submitted.id, Duration::from_secs(30), |s| s.state == "completed");
        assert_eq!(done.scenarios_completed, 1);
        // A repeat sweep answers warm and bit-identical to the direct
        // engine.
        let warm = service.sweep(&space, None).unwrap();
        assert_eq!(warm.stats.cache_hits, 1, "warm repeat at {shards} shards");
        assert_eq!(warm.records.len(), 1);
        let direct = Engine::new(1).sweep(&space, &SimBackend::new(), &SweepConfig::default());
        assert_eq!(warm.records[0].speedup.to_bits(), direct.records[0].speedup.to_bits());
    }
}

#[test]
fn a_huge_chunk_on_a_range_shorter_than_the_default_chunk_is_one_window() {
    let space = space(64);
    let n = space.len();
    let service = service(2, Arc::new(AnalyticBackend));
    let manager = JobManager::new(Arc::clone(&service), None, test_config(1)).unwrap();
    for chunk in [usize::MAX, usize::MAX - 7] {
        let submitted = manager.submit(space.clone(), 5..n, chunk, 0).unwrap();
        assert_eq!((submitted.window, submitted.windows_total), (DEFAULT_CHUNK, 1));
        let done = wait_for(&manager, &submitted.id, Duration::from_secs(30), |s| s.is_settled());
        assert_eq!(done.state, "completed", "chunk {chunk}: {done:?}");
        assert_eq!(done.scenarios_completed, n - 5);
    }
}

#[test]
fn a_restored_window_near_usize_max_is_one_window_to_the_range_end() {
    // Submit caps a window at `DEFAULT_CHUNK`, but restore keeps a
    // manifest's window as written: only a persisted manifest still
    // carries a huge one.
    let store = StoreDir::new("huge-window");
    let space = space(64);
    let n = space.len();
    let manifest = Manifest {
        version: MANIFEST_VERSION.to_string(),
        id: "j7".to_string(),
        fingerprint: format!("{:016x}", mp_dse::engine::space_fingerprint(&space)),
        start: 5,
        end: n,
        window: usize::MAX - 7,
        checkpoint_every: 1,
        state: "queued".to_string(),
        reason: String::new(),
        retries: 0,
        checkpoints: 0,
        completed: Vec::new(),
        space,
    };
    atomic_write(&store.0.join("j7.manifest"), &manifest.to_bytes()).unwrap();
    let service = service(2, Arc::new(AnalyticBackend));
    let manager =
        JobManager::new(Arc::clone(&service), Some(store.0.clone()), test_config(1)).unwrap();
    let restored = manager.status("j7").expect("the manifest restores");
    assert_eq!(restored.state, "suspended");
    // The manifest's JSON reads every number as an `f64`, so a window above
    // 2^53 comes back rounded: `usize::MAX - 7` reads as `usize::MAX`.
    assert!(restored.window >= usize::MAX - 7, "{restored:?}");
    assert_eq!(restored.windows_total, 1);
    manager.resume("j7").unwrap();
    let done = wait_for(&manager, "j7", Duration::from_secs(30), |s| s.is_settled());
    assert_eq!(done.state, "completed", "{done:?}");
    assert_eq!((done.windows_completed, done.scenarios_completed), (1, n - 5));
    wait_clean(&store.0);
}

#[test]
fn a_huge_chunk_still_runs_in_windows_of_at_most_the_default_chunk() {
    // Windows are the unit of checkpointing and of the runner's record
    // buffer, so a client's `chunk` is capped like a streamed sweep's.
    let space = space(20_000);
    let n = space.len();
    assert_eq!(n, 20_000);
    let service = service(2, Arc::new(AnalyticBackend));
    let manager = JobManager::new(Arc::clone(&service), None, test_config(1)).unwrap();
    let submitted = manager.submit(space, 0..n, usize::MAX, 0).unwrap();
    assert_eq!(
        (submitted.window, submitted.windows_total),
        (DEFAULT_CHUNK, 3),
        "window and windows_total"
    );
    let done = wait_for(&manager, &submitted.id, Duration::from_secs(30), |s| s.is_settled());
    assert_eq!(done.state, "completed", "{done:?}");
    assert_eq!((done.windows_completed, done.scenarios_completed), (3, n));
}

/// The one response the service's dispatch answers a job verb with.
fn respond(service: &SweepService, request: Request) -> Response {
    match service.handle(&request) {
        Answer::Response(response) => response,
        Answer::Sweep(ticket) => panic!("a job verb answered with a sweep ticket: {ticket:?}"),
    }
}

#[test]
fn job_verbs_dispatch_through_the_service_and_answer_without_a_manager() {
    let space = space(128);

    // Without a manager: every job verb answers a descriptive error.
    let bare = service(1, Arc::new(AnalyticBackend));
    match respond(&bare, Request::JobStatus { id: "j00001".to_string() }) {
        Response::Error { message } => {
            assert!(message.contains("durable jobs are not enabled"), "got: {message}")
        }
        other => panic!("expected an error response, got {other:?}"),
    }

    // With one: submit/status/cancel/resume round-trip as Job snapshots.
    let service = service(1, Arc::new(AnalyticBackend));
    let _manager = JobManager::new(Arc::clone(&service), None, test_config(5)).unwrap();
    let submit = Request::JobSubmit {
        space: SpaceSpec::Explicit(space.clone()),
        start: 0,
        end: space.len(),
        chunk: 32,
        checkpoint_every: 2,
    };
    let submitted = match respond(&service, submit) {
        Response::Job(snapshot) => snapshot,
        other => panic!("expected a job snapshot, got {other:?}"),
    };
    assert_eq!(submitted.window, 32);
    match respond(&service, Request::JobStatus { id: submitted.id.clone() }) {
        Response::Job(snapshot) => assert_eq!(snapshot.id, submitted.id),
        other => panic!("expected a job snapshot, got {other:?}"),
    }
    // Unknown ids are invalid, not busy.
    match respond(&service, Request::JobStatus { id: "nope".to_string() }) {
        Response::Error { message } => assert!(message.contains("unknown job id")),
        other => panic!("expected an error response, got {other:?}"),
    }
    // Submitting an empty range is refused up front.
    let empty = Request::JobSubmit {
        space: SpaceSpec::Explicit(space),
        start: 5,
        end: 5,
        chunk: 0,
        checkpoint_every: 0,
    };
    match respond(&service, empty) {
        Response::Error { message } => assert!(message.contains("invalid")),
        other => panic!("expected an error response, got {other:?}"),
    }
}

/// A manager whose service has an armed recorder records one `checkpoint`
/// span there for every checkpoint its snapshot counts.
#[test]
fn an_armed_recorder_holds_one_checkpoint_span_per_counted_checkpoint() {
    let space = space(1024);
    let service = service(1, Arc::new(AnalyticBackend));
    service.registry().profiler().set_enabled(true);
    let manager = JobManager::new(Arc::clone(&service), None, test_config(5)).unwrap();
    let submitted = manager.submit(space.clone(), 0..space.len(), 128, 2).unwrap();
    wait_for(&manager, &submitted.id, Duration::from_secs(30), |s| s.state == "completed");
    // With the runner joined, every checkpoint it took is counted.
    manager.kill();
    let done = manager.status(&submitted.id).unwrap();
    assert!(done.checkpoints >= 4, "cadence 2 over 8 windows, then the final one: {done:?}");

    let spans = service.registry().profiler().take();
    let checkpoints: Vec<_> = spans.iter().filter(|span| span.category == "checkpoint").collect();
    assert_eq!(checkpoints.len() as u64, done.checkpoints, "one span per counted checkpoint");
    for span in checkpoints {
        assert_eq!(span.name, format!("checkpoint {}", done.id));
    }
}
