//! Deterministic fault injection for robustness tests and crash drills.
//!
//! [`FaultyBackend`] wraps any [`EvalBackend`] and misbehaves **on a
//! schedule** instead of at random, so every failure a test provokes is
//! reproducible: it can fail (panic on) exactly the Nth batch once, fail
//! every batch until the fault is cleared, inject a fixed latency per batch
//! (to widen the window a crash drill must hit), or halt after N batches
//! until released (to park a sweep at a known point). The wrapper is
//! **transparent** when no fault fires — it delegates `name`, `memoise`,
//! `cache_salt` and every evaluation verbatim, so its records (and its cache
//! entries) are bit-identical to the inner backend's.
//!
//! Faults are controlled through the shared [`FaultPlan`] handle, which the
//! injecting test keeps while the backend is owned by an engine or service.
//! Only batch evaluations are counted and faulted; batch **ordinals** are
//! process-wide per plan, so "the Nth batch" means the Nth batch any thread
//! evaluates through this plan.
//!
//! This module is compiled only with the `fault` cargo feature — it exists
//! for tests, benches and the `repro serve --fail-nth` CI drill, not for
//! production configurations.

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use crate::backend::{DseError, EvalBackend};
use crate::scenario::{Scenario, ScenarioSpace};
use crate::tables::SpaceTables;

/// The shared schedule of a [`FaultyBackend`]: which batch ordinals fail,
/// whether every batch fails, how much latency each batch absorbs, and an
/// optional halt gate. All mutators are callable while sweeps are running.
pub struct FaultPlan {
    /// Batches evaluated through this plan so far (the ordinal mint).
    calls: AtomicU64,
    /// Ordinals that panic **once** — consumed when they fire, so a retry
    /// of the same window succeeds.
    fail_once: Mutex<HashSet<u64>>,
    /// When set, every batch panics until [`FaultPlan::clear_fault`].
    fail_all: AtomicBool,
    /// Injected latency per batch, microseconds.
    latency_us: AtomicU64,
    /// Batches allowed through before blocking on the gate
    /// (`u64::MAX` = no gate).
    halt_after: AtomicU64,
    /// Whether the halt gate has been released.
    gate: Mutex<bool>,
    released: Condvar,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            calls: AtomicU64::new(0),
            fail_once: Mutex::new(HashSet::new()),
            fail_all: AtomicBool::new(false),
            latency_us: AtomicU64::new(0),
            halt_after: AtomicU64::new(u64::MAX),
            gate: Mutex::new(false),
            released: Condvar::new(),
        }
    }
}

impl FaultPlan {
    /// A plan with no faults armed.
    pub fn new() -> Arc<FaultPlan> {
        Arc::new(FaultPlan::default())
    }

    /// Arm a one-shot failure: batch ordinal `n` (0-based) panics, then the
    /// fault is consumed so a retry succeeds.
    pub fn fail_batch(&self, n: u64) {
        self.fail_once.lock().expect("fault plan poisoned").insert(n);
    }

    /// Arm a persistent failure: every batch panics until
    /// [`FaultPlan::clear_fault`] — what drives a job into `Failed`.
    pub fn fail_all(&self) {
        self.fail_all.store(true, Ordering::SeqCst);
    }

    /// Clear the persistent failure (one-shot faults already consumed stay
    /// consumed; armed ones stay armed).
    pub fn clear_fault(&self) {
        self.fail_all.store(false, Ordering::SeqCst);
    }

    /// Inject `latency` of sleep into every batch — widens the window a
    /// crash drill must land a kill in.
    pub fn set_latency(&self, latency: Duration) {
        self.latency_us.store(latency.as_micros() as u64, Ordering::SeqCst);
    }

    /// Let `n` more batches through (counted from now), then block further
    /// batches on the gate until [`FaultPlan::release`].
    pub fn halt_after(&self, n: u64) {
        let now = self.calls.load(Ordering::SeqCst);
        *self.gate.lock().expect("fault plan poisoned") = false;
        self.halt_after.store(now.saturating_add(n), Ordering::SeqCst);
    }

    /// Open the halt gate: every blocked batch proceeds and the gate stays
    /// open until the next [`FaultPlan::halt_after`].
    pub fn release(&self) {
        self.halt_after.store(u64::MAX, Ordering::SeqCst);
        *self.gate.lock().expect("fault plan poisoned") = true;
        self.released.notify_all();
    }

    /// Batches evaluated through this plan so far.
    pub fn batches(&self) -> u64 {
        self.calls.load(Ordering::SeqCst)
    }

    /// Mint this batch's ordinal and apply the armed faults in order:
    /// latency, halt gate, then scheduled panics.
    fn before_batch(&self) {
        let ordinal = self.calls.fetch_add(1, Ordering::SeqCst);
        let latency_us = self.latency_us.load(Ordering::SeqCst);
        if latency_us > 0 {
            std::thread::sleep(Duration::from_micros(latency_us));
        }
        if ordinal >= self.halt_after.load(Ordering::SeqCst) {
            let mut released = self.gate.lock().expect("fault plan poisoned");
            while !*released && ordinal >= self.halt_after.load(Ordering::SeqCst) {
                released = self.released.wait(released).expect("fault plan poisoned");
            }
        }
        let fail_once = self.fail_once.lock().expect("fault plan poisoned").remove(&ordinal);
        if fail_once || self.fail_all.load(Ordering::SeqCst) {
            panic!("injected fault: batch {ordinal}");
        }
    }
}

/// An [`EvalBackend`] wrapper that misbehaves on the schedule of its
/// [`FaultPlan`] and is otherwise bit-transparent. See the module docs.
pub struct FaultyBackend<B> {
    inner: B,
    plan: Arc<FaultPlan>,
}

impl<B: EvalBackend> FaultyBackend<B> {
    /// Wrap `inner`, controlled by `plan`.
    pub fn new(inner: B, plan: Arc<FaultPlan>) -> Self {
        FaultyBackend { inner, plan }
    }

    /// The shared fault schedule.
    pub fn plan(&self) -> &Arc<FaultPlan> {
        &self.plan
    }
}

impl<B: EvalBackend> EvalBackend for FaultyBackend<B> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    // Wrapping never changes whether a sweep goes through the cache.
    fn memoise(&self) -> bool {
        self.inner.memoise()
    }

    // The salt deliberately delegates too: the wrapper never changes
    // *values*, so its cache entries must interoperate with the plain
    // backend's (a resumed job warm-starts from spills a faulted run wrote).
    fn cache_salt(&self) -> String {
        self.inner.cache_salt()
    }

    fn evaluate(&self, scenario: &Scenario<'_>) -> Result<f64, DseError> {
        self.inner.evaluate(scenario)
    }

    fn evaluate_batch_prepared(
        &self,
        space: &ScenarioSpace,
        tables: &SpaceTables,
        range: std::ops::Range<usize>,
        out: &mut [f64],
    ) {
        self.plan.before_batch();
        self.inner.evaluate_batch_prepared(space, tables, range, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{AnalyticBackend, SimBackend};
    use crate::engine::{Engine, SweepConfig};

    fn space() -> ScenarioSpace {
        ScenarioSpace::new().clear_designs().add_symmetric_grid((0..64).map(|i| 1.0 + i as f64))
    }

    #[test]
    fn transparent_when_no_fault_is_armed() {
        let space = space();
        let engine = Engine::new(1);
        let plain = engine.sweep(&space, &AnalyticBackend, &SweepConfig::default());
        let faulty = FaultyBackend::new(AnalyticBackend, FaultPlan::new());
        let wrapped = Engine::new(1).sweep(&space, &faulty, &SweepConfig::default());
        assert!(faulty.plan().batches() > 0);
        for (a, b) in plain.records.iter().zip(wrapped.records.iter()) {
            assert_eq!(a.speedup.to_bits(), b.speedup.to_bits());
        }
    }

    #[test]
    fn nth_batch_fails_once_then_the_retry_succeeds() {
        let space = space();
        // Several batches per sweep, so the armed one exists on every path.
        let config = SweepConfig { batch_size: 8, use_cache: true };
        // One backend that bypasses the cache and one that memoises.
        let backends: [Arc<dyn EvalBackend + Send + Sync>; 2] =
            [Arc::new(AnalyticBackend), Arc::new(SimBackend::new())];
        for inner in backends {
            let reference = Engine::new(1).sweep(&space, &inner, &config);
            // The inline engine and the pooled one share one fork-join contract.
            for threads in [1usize, 2] {
                let faulty = FaultyBackend::new(Arc::clone(&inner), FaultPlan::new());
                faulty.plan().fail_batch(3);
                let engine = Engine::new(threads);
                let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    engine.sweep(&space, &faulty, &config)
                }))
                .expect_err("the armed batch must panic");
                let what = format!("{} at {threads} thread(s)", inner.name());
                assert_eq!(
                    payload.downcast_ref::<String>().map(String::as_str),
                    Some("injected fault: batch 3"),
                    "{what}: the backend's own payload reaches the caller"
                );
                // The fault was consumed: the retry completes on the same
                // engine (same pool workers and, for the memoising backend,
                // the same half-filled cache), bit-identically.
                let retry = engine.sweep(&space, &faulty, &config);
                assert_eq!(retry.stats.threads, threads);
                assert_eq!(retry.records.len(), reference.records.len());
                for (record, truth) in retry.records.iter().zip(&reference.records) {
                    assert_eq!(record.index, truth.index, "{what}");
                    assert_eq!(record.speedup.to_bits(), truth.speedup.to_bits(), "{what}");
                }
            }
        }
    }

    #[test]
    fn fail_all_parks_until_cleared() {
        let space = space();
        let faulty = FaultyBackend::new(AnalyticBackend, FaultPlan::new());
        faulty.plan().fail_all();
        let engine = Engine::new(1);
        for _ in 0..3 {
            let attempt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                engine.sweep(&space, &faulty, &SweepConfig::default())
            }));
            assert!(attempt.is_err());
        }
        faulty.plan().clear_fault();
        let healed = engine.sweep(&space, &faulty, &SweepConfig::default());
        assert_eq!(healed.stats.scenarios, space.len());
    }
}
