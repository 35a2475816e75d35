//! Deterministic planner behaviour, pinned with a gated backend (no sleeps
//! in the control flow — the test decides exactly when evaluations finish):
//!
//! * **coalescing** — overlapping in-flight sweeps share one evaluation:
//!   the leader evaluates every scenario exactly once, followers receive a
//!   bit-identical clone marked `stats.coalesced`, and the planner counters
//!   account the shared work; a reduction (`top_k`, `pareto`) coalesces
//!   only with the same reduction, never with another kind of query over
//!   the same range;
//! * **cost-based admission** — a service whose estimated pending cost would
//!   exceed the budget rejects new queries with a busy error carrying the
//!   query's own cost estimate, and admission reopens once the backlog
//!   drains.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use mp_dse::backend::{DseError, EvalBackend};
use mp_dse::engine::EvalRecord;
use mp_dse::scenario::{Scenario, ScenarioSpace};
use mp_serve::prelude::*;

/// A backend whose evaluations block until the test releases them. Each
/// entry bumps `entered` (total evaluations ever started) and waits on the
/// `release` latch.
struct GateBackend {
    entered: Arc<AtomicUsize>,
    enter_signal: Arc<Condvar>,
    enter_lock: Arc<Mutex<()>>,
    release: Arc<(Mutex<bool>, Condvar)>,
}

impl GateBackend {
    #[allow(clippy::type_complexity)]
    fn new() -> (GateBackend, Arc<AtomicUsize>, Arc<(Mutex<bool>, Condvar)>) {
        let entered = Arc::new(AtomicUsize::new(0));
        let release = Arc::new((Mutex::new(false), Condvar::new()));
        let backend = GateBackend {
            entered: Arc::clone(&entered),
            enter_signal: Arc::new(Condvar::new()),
            enter_lock: Arc::new(Mutex::new(())),
            release: Arc::clone(&release),
        };
        (backend, entered, release)
    }
}

impl EvalBackend for GateBackend {
    fn name(&self) -> &'static str {
        "gate"
    }

    /// Every sweep evaluates: `entered` counts evaluations, never cache hits.
    fn memoise(&self) -> bool {
        false
    }

    fn evaluate(&self, scenario: &Scenario<'_>) -> Result<f64, DseError> {
        self.entered.fetch_add(1, Ordering::SeqCst);
        self.enter_signal.notify_all();
        let (open, signal) = &*self.release;
        let mut open = open.lock().unwrap();
        while !*open {
            open = signal.wait(open).unwrap();
        }
        drop(open);
        let _lock = self.enter_lock.lock().unwrap();
        // A deterministic, scenario-dependent value so reordered or
        // misattributed records cannot cancel out in the parity checks.
        Ok(scenario.design.area() * 2.0 + 1.0)
    }
}

fn open(release: &Arc<(Mutex<bool>, Condvar)>) {
    let (open, signal) = &**release;
    *open.lock().unwrap() = true;
    signal.notify_all();
}

/// A counter's current value in `service`'s registry.
fn series(service: &SweepService, name: &str) -> u64 {
    service.registry().snapshot().counter(name).unwrap_or(0)
}

#[test]
fn overlapping_inflight_sweeps_evaluate_once_and_fan_out_marked_clones() {
    let (backend, entered, release) = GateBackend::new();
    let space =
        ScenarioSpace::new().clear_designs().add_symmetric_grid((0..48).map(|i| 1.0 + i as f64));
    let service = Arc::new(SweepService::new(
        Arc::new(backend),
        &ServiceConfig { shards: 1, threads_per_shard: 1, ..ServiceConfig::default() },
    ));

    // The leader: takes the coalescing slot for the (single) window, then
    // blocks inside the gated backend.
    let leader = {
        let service = Arc::clone(&service);
        let space = space.clone();
        std::thread::spawn(move || service.sweep(&space, None).unwrap())
    };
    while entered.load(Ordering::SeqCst) == 0 {
        std::thread::yield_now();
    }

    // Followers: same space, same full range — equal plan keys. Each
    // increments the coalesced counter *before* blocking on the leader's
    // publication, so the counter doubles as the "all joined" signal.
    const FOLLOWERS: usize = 4;
    let followers: Vec<_> = (0..FOLLOWERS)
        .map(|_| {
            let service = Arc::clone(&service);
            let space = space.clone();
            std::thread::spawn(move || service.sweep(&space, None).unwrap())
        })
        .collect();
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    while series(&service, "planner_coalesced_requests") < FOLLOWERS as u64 {
        assert!(std::time::Instant::now() < deadline, "followers never joined the leader");
        std::thread::sleep(std::time::Duration::from_millis(1));
    }

    open(&release);
    let lead_result = leader.join().unwrap();
    assert!(!lead_result.stats.coalesced, "the leader evaluated; its stats are unshared");
    assert_eq!(lead_result.stats.scenarios, space.len());
    for follower in followers {
        let result = follower.join().unwrap();
        assert!(result.stats.coalesced, "followers carry the shared-result marker");
        assert_eq!(result.stats.scenarios, space.len(), "shared stats still cover the range");
        assert_eq!(result.records.len(), lead_result.records.len());
        for (a, b) in result.records.iter().zip(lead_result.records.iter()) {
            assert_eq!(a.index, b.index);
            assert_eq!(a.speedup.to_bits(), b.speedup.to_bits(), "shared records are bit-exact");
        }
    }

    // The whole fan-out cost exactly one evaluation per scenario, and the
    // planner accounted the scenarios it saved.
    assert_eq!(entered.load(Ordering::SeqCst), space.len(), "shared work is evaluated once");
    assert_eq!(series(&service, "planner_shared_scenarios"), (FOLLOWERS * space.len()) as u64);

    // With nothing in flight the table is empty again: a fresh sweep leads
    // its own evaluation (total evaluations grow by the full space).
    let again = service.sweep(&space, None).unwrap();
    assert!(!again.stats.coalesced);
    assert_eq!(entered.load(Ordering::SeqCst), 2 * space.len());
}

#[test]
fn pending_cost_above_the_budget_rejects_with_the_query_estimate() {
    let (backend, entered, release) = GateBackend::new();
    let space =
        ScenarioSpace::new().clear_designs().add_symmetric_grid((0..64).map(|i| 2.0 + i as f64));
    // Each scenario is pinned at 1 ms, so the 64-scenario sweep estimates
    // 64 ms against a 10 ms budget: admitted when the service is idle, a cost
    // rejection while anything is pending.
    let service = Arc::new(SweepService::new(
        Arc::new(backend),
        &ServiceConfig {
            shards: 1,
            threads_per_shard: 1,
            cost_budget_ms: 10.0,
            cost_per_scenario_ms: Some(1.0),
        },
    ));

    // An idle service admits even an over-budget query (work conservation:
    // rejecting it would leave the engine idle forever).
    let occupied = {
        let service = Arc::clone(&service);
        let space = space.clone();
        std::thread::spawn(move || service.sweep(&space, None).unwrap())
    };
    while entered.load(Ordering::SeqCst) == 0 {
        std::thread::yield_now();
    }

    // 64 ms pending + 64 ms new > 10 ms budget: rejected, with this query's
    // own estimate on the error.
    let rejected = service.sweep(&space, None).unwrap_err();
    assert!(rejected.is_busy(), "cost rejections are retryable: {rejected}");
    assert_eq!(rejected.kind, ServeErrorKind::Busy);
    assert_eq!(rejected.estimated_cost_ms, 64.0, "estimate = scenarios × pinned cost");
    let mut busy_answers = 1;
    assert_eq!(series(&service, "planner_cost_rejections"), busy_answers);
    // The same rejection over the protocol carries the estimate.
    match service.handle(&Request::TopK { space: SpaceSpec::Explicit(space.clone()), k: 2 }) {
        Answer::Response(Response::Busy { estimated_cost_ms, .. }) => {
            busy_answers += 1;
            assert_eq!(estimated_cost_ms, 64.0)
        }
        other => panic!("expected a busy response, got {other:?}"),
    }
    // One series counts the gate's refusals, one per busy answer; no second
    // series counts the same event.
    let snapshot = service.registry().snapshot();
    assert_eq!(snapshot.counter("planner_cost_rejections"), Some(busy_answers));
    assert_eq!(snapshot.counter("busy_rejections"), None, "a duplicate rejection series");

    // Drain the backlog: pending cost returns to zero and admission reopens.
    open(&release);
    let first = occupied.join().unwrap();
    assert_eq!(first.stats.scenarios, space.len());
    let second = service.sweep(&space, None).unwrap();
    assert_eq!(second.stats.scenarios, space.len());
    for (a, b) in first.records.iter().zip(second.records.iter()) {
        assert_eq!(a.speedup.to_bits(), b.speedup.to_bits());
    }
}

/// The records of a `top_k` / `pareto` answer.
fn records(answer: Answer) -> Vec<EvalRecord> {
    match answer {
        Answer::Response(Response::Records { records }) => from_wire(&records),
        other => panic!("expected records, got {other:?}"),
    }
}

fn bits(records: &[EvalRecord]) -> Vec<(usize, u64, u64, u64)> {
    records
        .iter()
        .map(|r| (r.index, r.speedup.to_bits(), r.cores.to_bits(), r.area.to_bits()))
        .collect()
}

/// Spin until `done`, failing the test after 30 s.
fn wait_until(what: &str, done: impl Fn() -> bool) {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    while !done() {
        assert!(std::time::Instant::now() < deadline, "timed out waiting until {what}");
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
}

/// A gated one-thread service with `space` prepared, its prepared spec, and
/// the gate's `entered` count and release latch.
#[allow(clippy::type_complexity)]
fn gated_service(
    space: &ScenarioSpace,
) -> (Arc<SweepService>, SpaceSpec, Arc<AtomicUsize>, Arc<(Mutex<bool>, Condvar)>) {
    let (backend, entered, release) = GateBackend::new();
    let service = Arc::new(SweepService::new(
        Arc::new(backend),
        &ServiceConfig { shards: 1, threads_per_shard: 1, ..ServiceConfig::default() },
    ));
    let (id, _) = service.prepare_spec(&SpaceSpec::Explicit(space.clone())).unwrap();
    (service, SpaceSpec::Prepared { id }, entered, release)
}

/// Answer `request` on a thread of its own.
fn spawn_handle(
    service: &Arc<SweepService>,
    request: Request,
) -> std::thread::JoinHandle<Vec<EvalRecord>> {
    let service = Arc::clone(service);
    std::thread::spawn(move || records(service.handle(&request)))
}

#[test]
fn concurrent_identical_top_k_queries_evaluate_once_and_share_the_answer() {
    let space =
        ScenarioSpace::new().clear_designs().add_symmetric_grid((0..48).map(|i| 1.0 + i as f64));
    let (service, prepared, entered, release) = gated_service(&space);
    let top_k = || Request::TopK { space: prepared.clone(), k: 10 };

    let leader = spawn_handle(&service, top_k());
    wait_until("the leader evaluates", || entered.load(Ordering::SeqCst) > 0);
    let follower = spawn_handle(&service, top_k());
    // The follower is counted as a query before it joins, and counted as
    // coalesced when it does.
    wait_until("the follower joins", || {
        service.stats().queries == 2 && series(&service, "planner_coalesced_requests") > 0
    });

    open(&release);
    let (lead, follow) = (leader.join().unwrap(), follower.join().unwrap());
    assert_eq!(entered.load(Ordering::SeqCst), space.len(), "one evaluation for both queries");
    assert_eq!(lead.len(), 10);
    assert_eq!(bits(&follow), bits(&lead), "the follower's answer is the leader's, bit for bit");
    let direct = service.sweep(&space, None).unwrap();
    assert_eq!(bits(&lead), bits(&mp_dse::analysis::top_k(&direct.records, 10)));
}

#[test]
fn a_pareto_or_a_sweep_window_does_not_join_a_top_k_leader() {
    let space =
        ScenarioSpace::new().clear_designs().add_symmetric_grid((0..48).map(|i| 1.0 + i as f64));
    let n = space.len();
    let (service, prepared, entered, release) = gated_service(&space);
    let evaluating = |count: usize| {
        let entered = Arc::clone(&entered);
        move || entered.load(Ordering::SeqCst) >= count
    };

    let top = spawn_handle(&service, Request::TopK { space: prepared.clone(), k: 10 });
    wait_until("the top_k leader evaluates", evaluating(1));
    // Same space and range, another query: each must enter an evaluation of
    // its own while the top_k leader is still blocked in the backend.
    let cost = mp_dse::analysis::CostAxis::Cores;
    let pareto = spawn_handle(&service, Request::Pareto { space: prepared.clone(), cost });
    wait_until("the pareto query evaluates on its own", evaluating(2));
    let window = {
        let service = Arc::clone(&service);
        let request = Request::Sweep { space: prepared, start: 0, end: n, chunk: 0 };
        std::thread::spawn(move || {
            let Answer::Sweep(mut ticket) = service.handle(&request) else {
                panic!("a sweep is answered with a ticket")
            };
            let mut records = Vec::new();
            while let Some(window) = service.next_window(&mut ticket).unwrap() {
                records.extend(window);
            }
            records
        })
    };
    wait_until("the sweep window evaluates on its own", evaluating(3));

    open(&release);
    let (top, frontier, swept) =
        (top.join().unwrap(), pareto.join().unwrap(), window.join().unwrap());
    assert_eq!(entered.load(Ordering::SeqCst), 3 * n, "three queries, three evaluations");
    assert_eq!(swept.len(), n);
    assert_eq!(bits(&top), bits(&mp_dse::analysis::top_k(&swept, 10)));
    assert_eq!(bits(&frontier), bits(&mp_dse::analysis::pareto_frontier(&swept, cost)));
}
