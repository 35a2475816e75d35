//! The multi-query planner: in-flight coalescing and cost-based admission.
//!
//! Sits between the executor pool and the engine. Three concerns:
//!
//! * **Coalescing** (`SingleFlight`) — a table of in-flight evaluations
//!   keyed by `(prepared-space fingerprint, normalized range, query kind)`
//!   — the records of a range, its top `k`, or its Pareto frontier on one
//!   cost axis. The first
//!   query to arrive for a key becomes the **leader** and evaluates as
//!   usual; queries that arrive while it is in flight become **followers**,
//!   block until the leader publishes, and receive the shared result — one
//!   evaluation, fanned back out per subscriber (for a reduction, a clone of
//!   its few records). Pull-based streaming
//!   sweeps request deterministic chunk-aligned windows, so overlapping
//!   full sweeps coalesce window by window without any range arithmetic.
//! * **Cost model** ([`CostModel`]) — estimates a query's evaluation cost
//!   in milliseconds from the per-scenario cost observed by its own
//!   engine's always-on `dse_batch_ms` histogram and
//!   `dse_scenarios_evaluated` counter (per-backend by construction: a
//!   service owns one engine and one backend, and the calibration is read
//!   at admission time so it tracks the live warm/cold mix). A seeded
//!   default covers the pre-calibration window.
//! * **Metrics** — the planner's counters, registered with the service
//!   into its engine's registry: `planner_coalesced_requests`,
//!   `planner_shared_scenarios`, `planner_cost_rejections`.
//!
//! **Why followers can always block.** A follower waits on the leader of
//! the *same window*, and leadership is taken inside the evaluation path —
//! the leader is by definition already running on an executor (or a caller
//! thread) and proceeds into the engine, which never coalesces. There is no
//! waits-for cycle: followers wait on a leader, leaders wait only on the
//! engine's pool workers.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::{Arc, Condvar, Mutex};

use mp_dse::engine::EngineMetrics;
use mp_obs::hist::Histogram;
use mp_obs::metrics::Counter;

/// Seeded per-scenario cost before enough engine data exists to calibrate
/// (2 µs — the right order for the analytic backend on one core).
pub(crate) const DEFAULT_COST_PER_SCENARIO_MS: f64 = 0.002;

/// Scenarios the engine must have processed before the live calibration is
/// trusted over the seed — below this, one pathological batch (a test
/// backend blocking inside an evaluation, say) would dominate the mean.
const MIN_CALIBRATION_SCENARIOS: u64 = 4096;

/// Calibration sanity clamp, ms per scenario. Guards the admission gate
/// against a polluted histogram; a real backend above the ceiling is
/// indistinguishable from one at it as far as "this query is enormous"
/// goes.
const COST_CLAMP_MS: (f64, f64) = (1e-6, 100.0);

/// Scenarios a calibration window must span before it closes and folds into
/// the decayed estimate. One full-grid sweep (~200k scenarios) closes ~50
/// windows, so the estimate re-converges well within one load pass after a
/// regime change.
const CALIBRATION_WINDOW_SCENARIOS: u64 = 4096;

/// EWMA weight of the newest closed window. At ½, a stale regime's
/// contribution halves per window — under 1% of the estimate after seven
/// windows (~29k scenarios) of the new regime.
const CALIBRATION_EWMA_ALPHA: f64 = 0.5;

/// Rolling calibration state: the engine-counter totals at the last window
/// close, plus the decayed per-scenario estimate.
#[derive(Debug, Default)]
struct CalibrationWindow {
    /// `dse_scenarios_evaluated` at the last window close.
    last_scenarios: u64,
    /// `dse_batch_ms` histogram sum at the last window close.
    last_sum_ms: f64,
    /// Exponentially decayed per-scenario cost over closed windows, ms.
    /// `None` until the first window closes (the seeded default applies).
    ewma_ms: Option<f64>,
}

impl CalibrationWindow {
    /// Fold the current engine totals in, closing a window if enough new
    /// scenarios have arrived, and return the per-scenario estimate, ms.
    ///
    /// The first window to close spans the counters' whole history — the
    /// lifetime mean, exactly the pre-windowed behaviour — and every later
    /// window is a bounded delta, so a throughput regime change (a kernel
    /// getting 2× faster, a cache warming up) decays out of the estimate
    /// geometrically instead of being averaged against all of history
    /// forever.
    fn fold(&mut self, total_scenarios: u64, total_sum_ms: f64) -> f64 {
        let new_scenarios = total_scenarios.saturating_sub(self.last_scenarios);
        let window_ready = match self.ewma_ms {
            // Trust no window until enough data exists for the first one —
            // below this, one pathological batch would dominate.
            None => total_scenarios >= MIN_CALIBRATION_SCENARIOS,
            Some(_) => new_scenarios >= CALIBRATION_WINDOW_SCENARIOS,
        };
        if window_ready && new_scenarios > 0 {
            let window_ms = ((total_sum_ms - self.last_sum_ms).max(0.0) / new_scenarios as f64)
                .clamp(COST_CLAMP_MS.0, COST_CLAMP_MS.1);
            self.ewma_ms = Some(match self.ewma_ms {
                None => window_ms,
                Some(prev) => prev + CALIBRATION_EWMA_ALPHA * (window_ms - prev),
            });
            self.last_scenarios = total_scenarios;
            self.last_sum_ms = total_sum_ms;
        }
        self.ewma_ms.unwrap_or(DEFAULT_COST_PER_SCENARIO_MS)
    }
}

/// The planner's per-backend evaluation cost model. See the module docs.
pub struct CostModel {
    /// Fixed per-scenario cost override (tests and benches); `None` reads
    /// the live engine calibration.
    override_ms: Option<f64>,
    /// The engine's `dse_scenarios_evaluated` and `dse_batch_ms`.
    scenarios: Arc<Counter>,
    batch_ms: Arc<Histogram>,
    /// Windowed-delta calibration state (see [`CalibrationWindow`]).
    window: Mutex<CalibrationWindow>,
}

impl CostModel {
    /// A model calibrating from one engine's series, or pinned to
    /// `override_ms` when given.
    pub fn new(override_ms: Option<f64>, engine: &EngineMetrics) -> CostModel {
        CostModel {
            override_ms,
            scenarios: Arc::clone(&engine.scenarios),
            batch_ms: Arc::clone(&engine.batch_ms),
            window: Mutex::new(CalibrationWindow::default()),
        }
    }

    /// The current estimated cost of evaluating one scenario, milliseconds:
    /// an exponentially decayed mean over bounded windows of the engine's
    /// batch time and scenario counters, seeded with
    /// `DEFAULT_COST_PER_SCENARIO_MS` until enough data exists. This is a
    /// deliberately *mean* cost across the live warm/cold mix — admission
    /// budgets queued work, and queued work arrives in the same mix — but
    /// windowing keeps it the mean of the *recent* mix: samples recorded
    /// before a throughput regime change stop mis-sizing work within one
    /// load pass.
    pub fn cost_per_scenario_ms(&self) -> f64 {
        if let Some(ms) = self.override_ms {
            return ms;
        }
        let scenarios = self.scenarios.value();
        let sum_ms = self.batch_ms.snapshot().sum;
        self.window.lock().expect("planner locks are never poisoned").fold(scenarios, sum_ms)
    }

    /// Estimated evaluation cost of a `scenarios`-sized query, milliseconds.
    pub fn estimate_ms(&self, scenarios: usize) -> f64 {
        scenarios as f64 * self.cost_per_scenario_ms()
    }
}

/// A coalescing-table key: which prepared space, which exact index range,
/// and what is asked of it. Streaming windows are chunk-aligned and
/// deterministic, so overlapping sweeps of the same space produce *equal*
/// keys window by window; a reduction only shares an evaluation with the
/// same reduction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct PlanKey {
    /// Content fingerprint of the prepared space.
    pub fingerprint: u64,
    /// Window start (inclusive).
    pub start: usize,
    /// Window end (exclusive).
    pub end: usize,
    /// What the evaluation answers.
    pub query: Query,
}

/// What an evaluation of a range answers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum Query {
    /// Every record, in index order.
    Records,
    /// The `k` best records ([`mp_dse::analysis::TopK`]).
    TopK(usize),
    /// The Pareto frontier on a cost axis ([`mp_dse::analysis::Pareto`]).
    Pareto(mp_dse::analysis::CostAxis),
}

/// One in-flight shared computation: the slot the leader publishes into and
/// followers wait on.
pub(crate) struct Inflight<V> {
    done: Mutex<Option<V>>,
    ready: Condvar,
}

impl<V: Clone> Inflight<V> {
    /// Block until the leader publishes, then return the shared value.
    pub(crate) fn wait(&self) -> V {
        let mut done = self.done.lock().expect("planner locks are never poisoned");
        while done.is_none() {
            done = self.ready.wait(done).expect("planner locks are never poisoned");
        }
        done.as_ref().expect("checked above").clone()
    }
}

/// What [`SingleFlight::join`] assigned the caller.
pub(crate) enum Role<V> {
    /// First in: compute, then [`SingleFlight::publish`].
    Leader,
    /// An equal-keyed computation is in flight: wait on it.
    Follower(Arc<Inflight<V>>),
}

/// The single-flight table: at most one in-flight computation per key. The
/// service keeps two — sweep evaluations keyed by [`PlanKey`] (coalescing)
/// and [`SpaceTables`] builds keyed by space fingerprint (two clients racing
/// a query over the same *new* space share one columnar precomputation).
///
/// Entries live exactly as long as their leader's computation: inserted at
/// [`SingleFlight::join`], removed at [`SingleFlight::publish`] — a
/// completed value is never served to a caller that arrives later (the
/// table shares *in-flight* work; it is not a result cache, and
/// subscriber-visible semantics stay identical to an uncoalesced run).
///
/// [`SpaceTables`]: mp_dse::tables::SpaceTables
pub(crate) struct SingleFlight<K, V> {
    inflight: Mutex<HashMap<K, Arc<Inflight<V>>>>,
}

impl<K, V> Default for SingleFlight<K, V> {
    fn default() -> Self {
        SingleFlight { inflight: Mutex::new(HashMap::new()) }
    }
}

impl<K: Eq + Hash, V: Clone> SingleFlight<K, V> {
    /// Join the in-flight computation for `key`, becoming its leader if none
    /// is running.
    pub(crate) fn join(&self, key: K) -> Role<V> {
        let mut inflight = self.inflight.lock().expect("planner locks are never poisoned");
        match inflight.entry(key) {
            Entry::Occupied(entry) => Role::Follower(Arc::clone(entry.get())),
            Entry::Vacant(slot) => {
                slot.insert(Arc::new(Inflight { done: Mutex::new(None), ready: Condvar::new() }));
                Role::Leader
            }
        }
    }

    /// Publish the leader's value for `key` and wake every follower. The
    /// entry is removed from the table *before* the value lands, so callers
    /// arriving from here on start a fresh computation.
    pub(crate) fn publish(&self, key: &K, value: V) {
        let entry = self
            .inflight
            .lock()
            .expect("planner locks are never poisoned")
            .remove(key)
            .expect("only the leader publishes, exactly once");
        *entry.done.lock().expect("planner locks are never poisoned") = Some(value);
        entry.ready.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cost_model_override_pins_the_estimate() {
        let model = CostModel::new(Some(0.5), mp_dse::engine::Engine::new(1).metrics());
        assert_eq!(model.cost_per_scenario_ms(), 0.5);
        assert_eq!(model.estimate_ms(100), 50.0);
    }

    #[test]
    fn calibrated_cost_stays_within_the_clamp() {
        use mp_dse::backend::AnalyticBackend;
        use mp_dse::engine::{Engine, SweepConfig};
        use mp_dse::scenario::ScenarioSpace;
        use mp_model::params::AppParams;

        let engine = Engine::new(1);
        let model = CostModel::new(None, engine.metrics());
        let space = ScenarioSpace::new()
            .with_apps(AppParams::table2_all())
            .clear_designs()
            .add_symmetric_grid((0..2000).map(|i| 1.0 + i as f64 * 0.125));
        assert!(space.len() as u64 > MIN_CALIBRATION_SCENARIOS, "{}", space.len());
        engine.sweep(&space, &AnalyticBackend, &SweepConfig::default());
        let ms = model.cost_per_scenario_ms();
        let closed = model.window.lock().expect("planner locks are never poisoned").last_scenarios;
        assert_eq!(closed, space.len() as u64, "the sweep closed a calibration window");
        assert_ne!(ms, DEFAULT_COST_PER_SCENARIO_MS, "the estimate is calibrated, not seeded");
        assert!(ms >= COST_CLAMP_MS.0 && ms <= COST_CLAMP_MS.1, "cost {ms} outside clamp");
    }

    #[test]
    fn calibration_seeds_then_reports_the_first_window_mean() {
        let mut window = CalibrationWindow::default();
        // Below the trust threshold: the seeded default, untouched state.
        assert_eq!(window.fold(100, 100.0), DEFAULT_COST_PER_SCENARIO_MS);
        assert_eq!(window.last_scenarios, 0);
        // First window spans all history: the lifetime mean (1 ms/scenario).
        assert_eq!(window.fold(8192, 8192.0), 1.0);
        // A sub-window delta re-reports the standing estimate unchanged.
        assert_eq!(window.fold(8192 + 100, 8192.0 + 100.0), 1.0);
        assert_eq!(window.last_scenarios, 8192);
    }

    #[test]
    fn calibration_converges_within_one_load_pass_after_a_regime_change() {
        let mut window = CalibrationWindow::default();
        // A long pre-change history at 1 ms/scenario…
        let mut scenarios = 1_000_000u64;
        let mut sum_ms = 1_000_000.0f64;
        assert_eq!(window.fold(scenarios, sum_ms), 1.0);
        // …then the kernels get 10× faster (0.1 ms/scenario). A lifetime
        // mean would still answer ~0.93 after eight windows of new data;
        // the decayed window must converge to within 5% of the new cost on
        // ~32k scenarios — a small fraction of one full-grid load pass.
        for _ in 0..8 {
            scenarios += CALIBRATION_WINDOW_SCENARIOS;
            sum_ms += CALIBRATION_WINDOW_SCENARIOS as f64 * 0.1;
            window.fold(scenarios, sum_ms);
        }
        let ms = window.fold(scenarios, sum_ms);
        assert!((ms - 0.1).abs() / 0.1 < 0.05, "stale estimate {ms} after regime change");
        // Deterministic fixed point: steady-state windows pin the estimate.
        for _ in 0..4 {
            scenarios += CALIBRATION_WINDOW_SCENARIOS;
            sum_ms += CALIBRATION_WINDOW_SCENARIOS as f64 * 0.1;
        }
        let settled = window.fold(scenarios, sum_ms);
        assert!((settled - 0.1).abs() / 0.1 < 0.05, "estimate {settled} drifted");
    }

    #[test]
    fn followers_see_exactly_the_leaders_publication() {
        use crate::service::{ServeError, ServeErrorKind};
        use mp_dse::engine::SweepResult;

        let coalescer: SingleFlight<PlanKey, Result<Arc<SweepResult>, ServeError>> =
            SingleFlight::default();
        let key = PlanKey { fingerprint: 7, start: 0, end: 4, query: Query::Records };
        assert!(matches!(coalescer.join(key), Role::Leader));
        let Role::Follower(entry) = coalescer.join(key) else {
            panic!("second join while in flight must follow");
        };
        let published = Err(ServeError {
            kind: ServeErrorKind::Invalid,
            message: "boom".into(),
            estimated_cost_ms: 0.0,
        });
        let waiter = std::thread::spawn(move || entry.wait());
        coalescer.publish(&key, published);
        let got = waiter.join().unwrap();
        assert_eq!(got.unwrap_err().message, "boom");
        // The entry is gone: the next join leads a fresh evaluation.
        assert!(matches!(coalescer.join(key), Role::Leader));
    }
}
