//! The crash-recovery drill, in-process: a durable job is killed mid-run
//! (manager dropped without a final checkpoint — deliberately
//! crash-equivalent), a fresh service restores it from the manifest and
//! cache segment spills, and `resume` completes it **re-evaluating only
//! the incomplete windows** — asserted through the restarted service's own
//! `dse_scenarios_evaluated` counter.
//!
//! The final records must be bit-identical to an uninterrupted
//! `Engine::sweep` of the same space. The drill runs on the simulator, a
//! backend that memoises, so there is a cache to spill and restore; a
//! backend that does not memoise (analytic, measured) spills nothing and
//! recomputes (`tests/serve_jobs.rs`).

use std::sync::Arc;
use std::time::{Duration, Instant};

use merging_phases::dse::prelude::*;
use mp_dse::fault::{FaultPlan, FaultyBackend};
use mp_serve::prelude::*;

#[test]
fn killed_job_resumes_from_its_checkpoint_and_reevaluates_only_incomplete_windows() {
    let dir = std::env::temp_dir().join(format!("mp-job-recovery-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // 4096 scenarios, 8 windows of 512; every scenario valid (default
    // budget, symmetric designs), so full coverage = fully warm cache.
    let space = ScenarioSpace::new()
        .clear_designs()
        .add_symmetric_grid((0..4096).map(|i| 1.0 + i as f64 * 0.03));
    let total_windows = 8usize;
    let window = 512usize;

    // ---- Phase 1: run under injected per-batch latency, then "crash". ----
    let plan = FaultPlan::new();
    plan.set_latency(Duration::from_millis(50));
    let shards = 2usize;
    let config = ServiceConfig { shards, threads_per_shard: 1, ..ServiceConfig::default() };
    let job_id;
    {
        let faulty: Arc<dyn EvalBackend + Send + Sync> =
            Arc::new(FaultyBackend::new(SimBackend::new(), Arc::clone(&plan)));
        let service = Arc::new(SweepService::new(faulty, &config));
        let manager =
            JobManager::new(Arc::clone(&service), Some(dir.clone()), JobConfig::default()).unwrap();
        // Checkpoint every completed window, so the durable frontier tracks
        // progress exactly.
        let submitted = manager.submit(space.clone(), 0..space.len(), window, 1).unwrap();
        assert_eq!(submitted.windows_total, total_windows);
        job_id = submitted.id;

        // Let a few windows land, then kill the manager mid-job. `kill`
        // stops the runner WITHOUT a final checkpoint and joins it — the
        // durable state is whatever the per-window checkpoints left,
        // exactly like a kill -9, but with the store provably quiescent
        // so phase 2 can reopen the directory.
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            let snapshot = manager.status(&job_id).unwrap();
            if snapshot.windows_completed >= 3 {
                break;
            }
            assert!(Instant::now() < deadline, "job made no progress: {snapshot:?}");
            std::thread::sleep(Duration::from_millis(1));
        }
        manager.kill();
    } // manager (and service) torn down here, job still incomplete

    // ---- Between lives: the manifest is the durable truth. ----
    let manifest_bytes = std::fs::read(dir.join(format!("{job_id}.manifest"))).unwrap();
    let manifest = Manifest::from_bytes(&manifest_bytes).unwrap();
    let completed_durable = manifest.completed.len();
    assert!(
        completed_durable >= 3 && completed_durable < total_windows,
        "the crash must land mid-job: {completed_durable}/{total_windows} windows durable"
    );

    // ---- Phase 2: fresh process-equivalent — restore, resume, complete. ----
    let service = Arc::new(SweepService::new(Arc::new(SimBackend::new()), &config));
    let manager =
        JobManager::new(Arc::clone(&service), Some(dir.clone()), JobConfig::default()).unwrap();
    let restored = manager.status(&job_id).unwrap();
    assert_eq!(restored.state, "suspended", "in-flight jobs restore awaiting resume");
    assert_eq!(restored.windows_completed, completed_durable);
    assert_eq!(restored.scenarios_completed, completed_durable * window);

    manager.resume(&job_id).unwrap();
    let deadline = Instant::now() + Duration::from_secs(60);
    let done = loop {
        let snapshot = manager.status(&job_id).unwrap();
        if snapshot.state == "completed" {
            break snapshot;
        }
        assert!(Instant::now() < deadline, "resumed job did not complete: {snapshot:?}");
        std::thread::sleep(Duration::from_millis(2));
    };
    let evaluated = service.registry().snapshot().counter("dse_scenarios_evaluated");
    assert_eq!(done.windows_completed, total_windows);

    // The heart of the drill: the resumed run swept EXACTLY the incomplete
    // windows — completed ones were never pulled through the engine again.
    let expected = ((total_windows - completed_durable) * window) as u64;
    assert_eq!(
        evaluated,
        Some(expected),
        "resume must re-evaluate only the {} incomplete windows",
        total_windows - completed_durable
    );

    // Warm fetch: phase-1 windows answer from the restored segment spill,
    // phase-2 windows from the live cache — the whole space hits.
    let warm = service.sweep(&space, None).unwrap();
    assert_eq!(warm.stats.cache_hits as usize, space.len(), "restart must reload the cache");

    // Bit-parity with an uninterrupted single-engine sweep.
    let direct = Engine::new(1).sweep(&space, &SimBackend::new(), &SweepConfig::default());
    assert_eq!(warm.records.len(), direct.records.len());
    for (a, b) in warm.records.iter().zip(direct.records.iter()) {
        assert_eq!(a.index, b.index);
        assert_eq!(a.speedup.to_bits(), b.speedup.to_bits(), "speedup @{}", a.index);
        assert_eq!(a.cores.to_bits(), b.cores.to_bits(), "cores @{}", a.index);
        assert_eq!(a.area.to_bits(), b.area.to_bits(), "area @{}", a.index);
    }

    let _ = std::fs::remove_dir_all(&dir);
}
