//! A backend panic is contained to the query that hit it: the caller gets a
//! typed error, the admission gauges are credited back, and the service
//! answers the next query bit-identically — on the inline (1-thread) engine
//! path and on the pooled one.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use mp_dse::backend::{AnalyticBackend, DseError, EvalBackend};
use mp_dse::engine::{Engine, SweepConfig};
use mp_dse::scenario::{Scenario, ScenarioSpace};
use mp_dse::tables::SpaceTables;
use mp_model::params::AppParams;
use mp_serve::prelude::*;

/// The analytic backend, except that the `fail_at`-th batch it is handed
/// (0-based, counted across threads) panics. Values and cache salt are the
/// analytic backend's own.
struct PanicOnBatch {
    batches: AtomicU64,
    fail_at: u64,
}

impl EvalBackend for PanicOnBatch {
    fn name(&self) -> &'static str {
        AnalyticBackend.name()
    }

    fn evaluate(&self, scenario: &Scenario<'_>) -> Result<f64, DseError> {
        AnalyticBackend.evaluate(scenario)
    }

    fn evaluate_batch_prepared(
        &self,
        space: &ScenarioSpace,
        tables: &SpaceTables,
        range: std::ops::Range<usize>,
        out: &mut [f64],
    ) {
        if self.batches.fetch_add(1, Ordering::SeqCst) == self.fail_at {
            panic!("injected panic in batch {}", self.fail_at);
        }
        AnalyticBackend.evaluate_batch_prepared(space, tables, range, out);
    }
}

#[test]
fn a_backend_panic_fails_one_query_and_leaves_the_service_answering() {
    let space = ScenarioSpace::new()
        .with_apps(AppParams::table2_all())
        .clear_designs()
        .add_symmetric_grid((0..720).map(|i| 1.0 + i as f64 * 0.25));
    let n = space.len();
    // More than two batches of the engine's default size, so the third one
    // exists on the inline (1-thread) path too.
    assert!(n > 2 * SweepConfig::default().batch_size, "{n} scenarios");
    let direct = Engine::new(1).sweep(&space, &AnalyticBackend, &SweepConfig::default());
    let queue_depth =
        |service: &SweepService| service.registry().snapshot().gauge("executor_queue_depth");

    for (shards, threads_per_shard) in [(1usize, 1usize), (2, 2)] {
        let what = format!("{} engine threads", shards * threads_per_shard);
        let backend = Arc::new(PanicOnBatch { batches: AtomicU64::new(0), fail_at: 2 });
        let service = SweepService::new(
            Arc::clone(&backend) as Arc<dyn EvalBackend + Send + Sync>,
            &ServiceConfig {
                shards,
                threads_per_shard,
                // A budget any leaked pending cost would blow: the follow-up
                // query is admitted only if the failed one credited its cost
                // back (and `executor_queue_depth` is read below).
                cost_budget_ms: 1.0,
                cost_per_scenario_ms: Some(1.0),
            },
        );
        assert_eq!(queue_depth(&service), Some(0), "{what}: idle service");

        let failed = service.sweep(&space, None).unwrap_err();
        assert_eq!(failed.kind, ServeErrorKind::Invalid, "{what}: {failed}");
        assert!(failed.message.starts_with("sweep evaluation failed"), "{what}: {failed}");
        assert!(backend.batches.load(Ordering::SeqCst) > 2, "{what}: the armed batch ran");
        assert_eq!(queue_depth(&service), Some(0), "{what}: the failed query released its slot");

        let retried = service.sweep(&space, None).unwrap();
        assert_eq!(retried.stats.scenarios, n, "{what}");
        assert_eq!(retried.records.len(), n, "{what}");
        for (record, truth) in retried.records.iter().zip(&direct.records) {
            assert_eq!(record.index, truth.index, "{what}");
            assert_eq!(record.speedup.to_bits(), truth.speedup.to_bits(), "{what}");
        }
        // The streaming path crosses the same gate and the same engine.
        let answer = service.handle(&Request::Sweep {
            space: SpaceSpec::Explicit(space.clone()),
            start: 0,
            end: n,
            chunk: 0,
        });
        let Answer::Sweep(mut ticket) = answer else { panic!("{what}: {answer:?}") };
        while service.next_window(&mut ticket).unwrap().is_some() {}
        assert_eq!(ticket.stats().scenarios, n, "{what}");
        assert_eq!(queue_depth(&service), Some(0), "{what}");
    }
}
