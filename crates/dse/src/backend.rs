//! Pluggable evaluation backends.
//!
//! A backend turns one [`Scenario`] into a predicted speedup. Four are
//! provided:
//!
//! * [`AnalyticBackend`] — the paper's extended model (Eq. 4/5); consumes the
//!   application, budget, design, growth and perf axes.
//! * [`MeasuredBackend`] — the extended model driven by *measured*
//!   calibrations ([`CalibratedParams`]): each scenario application resolves
//!   to its calibrated parameters and fitted growth function, closing the
//!   paper's measure → extract → model → explore loop.
//! * [`CommBackend`] — the communication-aware model (Eq. 6–8); the
//!   scenario's growth axis drives the reduction *computation* and the
//!   topology axis the communication.
//! * [`SimBackend`] — trace-driven: synthesises an `mp-cmpsim` phase program
//!   from the application parameters and times it on the scenario's machine;
//!   the reduction-strategy axis selects the merge implementation, and the
//!   overhead growth *emerges* from the simulator's core/cache models instead
//!   of being assumed.
//!
//! [`EvalBackend::evaluate`] is the per-scenario reference. The sweep hot
//! path is [`EvalBackend::evaluate_batch_prepared`] over a contiguous index
//! range of a space (default: a per-scenario loop): the analytic, measured
//! and simulation backends stream the design-innermost inner loop through the
//! sweep's precomputed [`SpaceTables`] columns with zero heap allocation per
//! scenario, borrowing parameters via [`PreparedModel`] instead of cloning
//! them. The batch path is bit-identical to per-scenario evaluation by
//! contract (and by `tests/sweep_parity.rs`).

use parking_lot::Mutex;
use std::collections::HashMap;

use mp_cmpsim::config::MachineConfig;
use mp_cmpsim::engine::simulate_cycles;
use mp_cmpsim::machine::Machine;
use mp_cmpsim::program::{PhaseOp, PhaseProgram, ReductionKind};
use mp_model::calibrate::CalibratedParams;
use mp_model::chip::{AsymmetricDesign, SymmetricDesign};
use mp_model::comm::{CommModel, CommSplit};
use mp_model::error::ModelError;
use mp_model::extended::ExtendedModel;
use mp_model::growth::GrowthFunction;
use mp_model::params::AppParams;
use mp_model::prepared::PreparedModel;
use mp_par::ReductionStrategy;

use crate::scenario::{ChipSpec, Scenario, ScenarioIndex, ScenarioSpace};
use crate::tables::SpaceTables;

/// Error produced by a backend evaluation.
#[derive(Debug, Clone, PartialEq)]
pub enum DseError {
    /// The underlying analytical model rejected the scenario.
    Model(ModelError),
    /// The design does not fit the scenario's budget.
    InvalidDesign {
        /// Swept area of the offending design.
        area: f64,
        /// Budget it failed to fit.
        budget: f64,
    },
}

impl std::fmt::Display for DseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DseError::Model(e) => write!(f, "model error: {e}"),
            DseError::InvalidDesign { area, budget } => {
                write!(f, "design of area {area} BCE does not fit a {budget}-BCE budget")
            }
        }
    }
}

impl std::error::Error for DseError {}

impl From<ModelError> for DseError {
    fn from(e: ModelError) -> Self {
        DseError::Model(e)
    }
}

/// A design-space evaluation backend.
///
/// Whether a sweep goes through the engine's memoisation cache is the
/// backend's call ([`EvalBackend::memoise`]) as much as the sweep's
/// ([`SweepConfig::use_cache`]): analytic and measured, which share the
/// Eq. 4/5 kernel, recompute a scenario for less than one cache probe costs
/// and opt out; comm and the simulator, which each cost about a probe hit,
/// keep the default.
///
/// [`SweepConfig::use_cache`]: crate::engine::SweepConfig::use_cache
pub trait EvalBackend: Sync {
    /// Stable name, used in reports.
    fn name(&self) -> &'static str;

    /// Whether sweeps with this backend go through the memoisation cache.
    /// A property of the backend, not a setting: `true` (the default) when
    /// evaluating a scenario costs more than probing for it, `false` when
    /// recomputing is cheaper than the table traffic (probe, insert,
    /// `reserve`). A non-memoising backend's sweeps never touch the cache —
    /// no probes, no inserts, no entries — and report every scenario as a
    /// miss, exactly as a `use_cache: false` sweep does.
    fn memoise(&self) -> bool {
        true
    }

    /// Salt mixed into every memoisation-cache key. Must change whenever the
    /// backend is configured to produce different numbers for the same
    /// scenario (machine config, operation budgets, split overrides, …), or
    /// a reconfigured backend would silently read another configuration's
    /// cached speedups. Defaults to the backend name for stateless backends.
    fn cache_salt(&self) -> String {
        self.name().to_string()
    }

    /// Predicted speedup of one scenario relative to a single 1-BCE core.
    fn evaluate(&self, scenario: &Scenario<'_>) -> Result<f64, DseError>;

    /// Evaluate the contiguous index range `range` of `space` into `out`
    /// (which has `range.len()` slots), with the sweep's columnar
    /// [`SpaceTables`] available. Unfit or erroring scenarios yield
    /// `f64::NAN`. The default is a per-scenario loop over
    /// [`EvalBackend::evaluate`]; backends that override it stream the
    /// per-design inner loop through the precomputed geometry / perf / growth
    /// columns with **zero heap allocation per scenario**. Overrides must
    /// stay bit-identical to the per-scenario path.
    fn evaluate_batch_prepared(
        &self,
        space: &ScenarioSpace,
        tables: &SpaceTables,
        range: std::ops::Range<usize>,
        out: &mut [f64],
    ) {
        let _ = tables;
        assert_eq!(out.len(), range.len());
        for (slot, index) in out.iter_mut().zip(range) {
            let scenario = space.scenario(index);
            *slot = if scenario.design.fits(scenario.budget) {
                self.evaluate(&scenario).unwrap_or(f64::NAN)
            } else {
                f64::NAN
            };
        }
    }
}

/// Shared backends delegate: an `Arc<B>` (including `Arc<dyn EvalBackend>`)
/// is itself a backend, forwarding every method — including the batch
/// override — to its pointee, so wrappers like
/// `fault::FaultyBackend` can compose over the type-erased handles the
/// serve stack passes around without losing the inner backend's fast paths.
impl<B: EvalBackend + Send + ?Sized> EvalBackend for std::sync::Arc<B> {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn memoise(&self) -> bool {
        (**self).memoise()
    }

    fn cache_salt(&self) -> String {
        (**self).cache_salt()
    }

    fn evaluate(&self, scenario: &Scenario<'_>) -> Result<f64, DseError> {
        (**self).evaluate(scenario)
    }

    fn evaluate_batch_prepared(
        &self,
        space: &ScenarioSpace,
        tables: &SpaceTables,
        range: std::ops::Range<usize>,
        out: &mut [f64],
    ) {
        (**self).evaluate_batch_prepared(space, tables, range, out);
    }
}

/// Walk `range` as maximal runs of consecutive designs sharing every other
/// axis (the decode order is design-innermost), calling
/// `f(first_index_of_run, offset_into_range, run_length)`.
pub(crate) fn for_each_design_run(
    space: &ScenarioSpace,
    range: std::ops::Range<usize>,
    mut f: impl FnMut(usize, usize, usize),
) {
    let designs = space.designs().len();
    let mut index = range.start;
    let mut offset = 0usize;
    while index < range.end {
        let design = index % designs;
        let run = (designs - design).min(range.end - index);
        f(index, offset, run);
        index += run;
        offset += run;
    }
}

/// The columnar inner loop of the analytic and measured backends: evaluate
/// the designs `[ix.design, ix.design + out.len())` of one shared-axis run
/// through a prepared model and the sweep's precomputed columns.
///
/// Symmetric and asymmetric designs use different formulas, so the run is
/// walked as homogeneous [`SpaceTables::segments`]; within a segment every
/// element is one call of the `PreparedModel::speedup_*_from_parts` function
/// that defines the result, over equal-length slices, so the loops have no
/// bounds checks and no branches but selects, and the compiler vectorises
/// them at whatever width the enclosing function's target features allow. No
/// heap allocation, no `Result`s — unfit designs are `NaN`, bit-identical to
/// the per-scenario path.
#[inline(always)]
fn eval_design_run_body(
    model: &PreparedModel<'_>,
    tables: &SpaceTables,
    total_bce: f64,
    ix: &ScenarioIndex,
    growth: Option<&[f64]>,
    out: &mut [f64],
) {
    let end = ix.design + out.len();
    for seg in tables.segments() {
        let a = seg.start.max(ix.design);
        let b = (seg.start + seg.len).min(end);
        if a >= b {
            continue;
        }
        let out = &mut out[a - ix.design..b - ix.design];
        let growth = growth.map(|column| &column[a..b]);
        let fits = &tables.fits_bits(ix.budget)[a..b];
        let perf_r = &tables.perf_small(ix.perf)[a..b];
        let nan_unless_fit = |i: usize, speedup: f64| if fits[i] != 0 { speedup } else { f64::NAN };
        if seg.asym {
            let small_cores = &tables.small_cores(ix.budget)[a..b];
            let perf_l = &tables.perf_large(ix.perf)[a..b];
            eval_segment(growth, out, |i, sample| {
                let speedup = model.speedup_asymmetric_from_parts(
                    small_cores[i],
                    perf_r[i],
                    perf_l[i],
                    sample,
                );
                nan_unless_fit(i, speedup)
            });
        } else {
            let r = &tables.design_r()[a..b];
            eval_segment(growth, out, |i, sample| {
                let speedup =
                    model.speedup_symmetric_from_parts(total_bce, r[i], perf_r[i], sample);
                nan_unless_fit(i, speedup)
            });
        }
    }
}

/// `out[i] = speedup(i, growth sample of design i)` over one segment.
/// `growth` is the segment's slice of the space-axis growth column.
/// Calibration-supplied growth is not a space axis, so it has no column:
/// `None` means the caller wrote each design's sample into its `out` slot,
/// and the loop consumes it in place — no scratch allocation.
#[inline(always)]
fn eval_segment(growth: Option<&[f64]>, out: &mut [f64], speedup: impl Fn(usize, f64) -> f64) {
    match growth {
        Some(column) => {
            for (i, (slot, &sample)) in out.iter_mut().zip(column).enumerate() {
                *slot = speedup(i, sample);
            }
        }
        None => {
            for (i, slot) in out.iter_mut().enumerate() {
                *slot = speedup(i, *slot);
            }
        }
    }
}

/// [`eval_design_run_body`] compiled with AVX2 enabled. `avx2` does not
/// enable FMA and Rust never contracts or reassociates float arithmetic, so
/// this instantiation differs from the baseline one in width only: IEEE
/// add/mul/div are correctly rounded per lane, hence the same bits.
///
/// # Safety
///
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn eval_design_run_avx2(
    model: &PreparedModel<'_>,
    tables: &SpaceTables,
    total_bce: f64,
    ix: &ScenarioIndex,
    growth: Option<&[f64]>,
    out: &mut [f64],
) {
    eval_design_run_body(model, tables, total_bce, ix, growth, out);
}

/// Evaluate one shared-axis design run at the width
/// [`mp_model::simd::level`] selects.
fn eval_design_run_dispatch(
    model: &PreparedModel<'_>,
    tables: &SpaceTables,
    total_bce: f64,
    ix: &ScenarioIndex,
    growth: Option<&[f64]>,
    out: &mut [f64],
) {
    #[cfg(target_arch = "x86_64")]
    if mp_model::simd::level() == mp_model::simd::SimdLevel::Avx2 {
        // SAFETY: `level()` reports `Avx2` only after
        // `is_x86_feature_detected!("avx2")` succeeded on this CPU.
        unsafe { eval_design_run_avx2(model, tables, total_bce, ix, growth, out) };
        return;
    }
    eval_design_run_body(model, tables, total_bce, ix, growth, out);
}

fn speedup_extended(model: &ExtendedModel, scenario: &Scenario<'_>) -> Result<f64, DseError> {
    if !scenario.design.fits(scenario.budget) {
        return Err(DseError::InvalidDesign {
            area: scenario.design.area(),
            budget: scenario.budget.total_bce(),
        });
    }
    let speedup = match scenario.design {
        ChipSpec::Symmetric { r } => {
            model.speedup_symmetric(&SymmetricDesign::new(scenario.budget, r)?)?
        }
        ChipSpec::Asymmetric { r, rl } => {
            model.speedup_asymmetric(&AsymmetricDesign::new(scenario.budget, r, rl)?)?
        }
    };
    Ok(speedup)
}

/// The extended-model backend (paper Eq. 4/5).
#[derive(Debug, Clone, Copy, Default)]
pub struct AnalyticBackend;

impl EvalBackend for AnalyticBackend {
    fn name(&self) -> &'static str {
        "analytic"
    }

    /// The columnar kernel evaluates a scenario in about a nanosecond; a
    /// cache probe costs tens.
    fn memoise(&self) -> bool {
        false
    }

    fn evaluate(&self, scenario: &Scenario<'_>) -> Result<f64, DseError> {
        let model =
            ExtendedModel::new(scenario.app.clone(), scenario.growth.clone(), scenario.perf);
        speedup_extended(&model, scenario)
    }

    fn evaluate_batch_prepared(
        &self,
        space: &ScenarioSpace,
        tables: &SpaceTables,
        range: std::ops::Range<usize>,
        out: &mut [f64],
    ) {
        assert_eq!(out.len(), range.len());
        for_each_design_run(space, range, |index, offset, run| {
            let ix = space.decode(index);
            let model = PreparedModel::new(
                &space.apps()[ix.app],
                &space.growths()[ix.growth],
                space.perfs()[ix.perf],
            );
            let total_bce = space.budgets()[ix.budget];
            let growth = tables.growth(ix.growth, ix.budget);
            let out = &mut out[offset..offset + run];
            eval_design_run_dispatch(&model, tables, total_bce, &ix, Some(growth), out);
        });
    }
}

/// The communication-aware backend (paper Eq. 6–8).
///
/// The scenario's growth axis is used as the reduction-*computation* growth
/// (constant for a privatised parallel merge, linear for a serial one, …) and
/// the topology axis as the communication growth. The computation /
/// communication split defaults to the paper's ideal half/half split of the
/// application's reduction fraction; [`CommBackend::with_split`] overrides it.
#[derive(Debug, Clone, Copy, Default)]
pub struct CommBackend {
    split: Option<CommSplit>,
}

impl CommBackend {
    /// Backend with the paper's ideal split.
    pub fn new() -> Self {
        CommBackend { split: None }
    }

    /// Use an explicit computation/communication split instead of the ideal
    /// one derived from each application's reduction fraction.
    pub fn with_split(mut self, split: CommSplit) -> Self {
        self.split = Some(split);
        self
    }

    fn model(&self, scenario: &Scenario<'_>) -> Result<CommModel, DseError> {
        let split = match self.split {
            Some(split) => split,
            None => CommSplit::ideal(scenario.app.split.fred)?,
        };
        Ok(CommModel::new(
            scenario.app.clone(),
            split,
            scenario.growth.clone(),
            scenario.topology,
            scenario.perf,
        ))
    }
}

fn speedup_comm(model: &CommModel, scenario: &Scenario<'_>) -> Result<f64, DseError> {
    if !scenario.design.fits(scenario.budget) {
        return Err(DseError::InvalidDesign {
            area: scenario.design.area(),
            budget: scenario.budget.total_bce(),
        });
    }
    let speedup = match scenario.design {
        ChipSpec::Symmetric { r } => {
            model.speedup_symmetric(&SymmetricDesign::new(scenario.budget, r)?)?
        }
        ChipSpec::Asymmetric { r, rl } => {
            model.speedup_asymmetric(&AsymmetricDesign::new(scenario.budget, r, rl)?)?
        }
    };
    Ok(speedup)
}

impl EvalBackend for CommBackend {
    fn name(&self) -> &'static str {
        "comm"
    }

    fn cache_salt(&self) -> String {
        match self.split {
            None => "comm".to_string(),
            Some(split) => {
                format!("comm:{:016x}:{:016x}", split.fcomp.to_bits(), split.fcomm.to_bits())
            }
        }
    }

    fn evaluate(&self, scenario: &Scenario<'_>) -> Result<f64, DseError> {
        let model = self.model(scenario)?;
        speedup_comm(&model, scenario)
    }

    fn evaluate_batch_prepared(
        &self,
        space: &ScenarioSpace,
        _tables: &SpaceTables,
        range: std::ops::Range<usize>,
        out: &mut [f64],
    ) {
        assert_eq!(out.len(), range.len());
        // Consecutive indices share all axes but the design, so one model
        // serves a whole run of designs.
        let mut current: Option<(usize, CommModel)> = None;
        for (slot, index) in out.iter_mut().zip(range) {
            let shared = index / space.designs().len();
            let scenario = space.scenario(index);
            if !matches!(&current, Some((tag, _)) if *tag == shared) {
                match self.model(&scenario) {
                    Ok(model) => current = Some((shared, model)),
                    Err(_) => {
                        current = None;
                        *slot = f64::NAN;
                        continue;
                    }
                }
            }
            let model = &current.as_ref().expect("model built above").1;
            *slot = speedup_comm(model, &scenario).unwrap_or(f64::NAN);
        }
    }
}

/// The measured-calibration backend: the extended model parameterised by
/// workload calibrations instead of hand-entered constants.
///
/// Each scenario's application is matched **by name** against the backend's
/// calibration set; the calibration supplies both the application parameters
/// and the growth function, so the scenario's app values and growth axis are
/// not consulted (build the space's application axis from
/// [`MeasuredBackend::apps`] to keep reports consistent). The budget, design
/// and perf axes are honoured as usual.
///
/// With [`MeasuredBackend::with_exact_growth`] the fitted closed-form growth
/// is replaced by the empirical [`GrowthFunction::Measured`] curve
/// (reproduces the observed serial multipliers exactly at the measured
/// thread counts, linear extrapolation beyond).
///
/// [`GrowthFunction::Measured`]: mp_model::growth::GrowthFunction::Measured
pub struct MeasuredBackend {
    calibrations: Vec<CalibratedParams>,
    /// Exact-growth parameters, one per calibration, materialised once at
    /// construction so the batched hot path can borrow them instead of
    /// rebuilding an `AppParams` + measured curve per shared-axis run.
    exact: Vec<(AppParams, GrowthFunction)>,
    exact_growth: bool,
}

impl MeasuredBackend {
    /// A backend answering for the given calibrations (at least one).
    pub fn new(calibrations: Vec<CalibratedParams>) -> Self {
        assert!(!calibrations.is_empty(), "measured backend needs at least one calibration");
        let exact = calibrations.iter().map(|c| (c.exact_app_params(), c.exact_growth())).collect();
        MeasuredBackend { calibrations, exact, exact_growth: false }
    }

    /// Use the empirical measured-growth curves instead of the fitted closed
    /// forms.
    pub fn with_exact_growth(mut self) -> Self {
        self.exact_growth = true;
        self
    }

    /// The calibrations this backend answers for.
    pub fn calibrations(&self) -> &[CalibratedParams] {
        &self.calibrations
    }

    /// The calibrated application parameter sets, ready to become a
    /// [`ScenarioSpace`] application axis.
    pub fn apps(&self) -> Vec<AppParams> {
        self.calibrations.iter().map(|c| c.app_params().clone()).collect()
    }

    fn find(&self, name: &str) -> Option<usize> {
        self.calibrations.iter().position(|c| c.app_params().name == name)
    }

    /// The (parameters, growth) pair a scenario application resolves to,
    /// borrowed — the fitted calibration or its precomputed exact-growth
    /// counterpart.
    fn resolve(&self, name: &str) -> Option<(&AppParams, &GrowthFunction)> {
        let at = self.find(name)?;
        Some(if self.exact_growth {
            let (app, growth) = &self.exact[at];
            (app, growth)
        } else {
            let calibration = &self.calibrations[at];
            (calibration.app_params(), calibration.growth())
        })
    }

    fn model(&self, scenario: &Scenario<'_>) -> Result<ExtendedModel, DseError> {
        let (app, growth) =
            self.resolve(&scenario.app.name).ok_or(DseError::Model(ModelError::Calibration {
                what: "scenario application has no calibration",
            }))?;
        Ok(ExtendedModel::new(app.clone(), growth.clone(), scenario.perf))
    }
}

impl EvalBackend for MeasuredBackend {
    fn name(&self) -> &'static str {
        "measured"
    }

    /// The analytic backend's columnar kernel, so the analytic trade-off.
    fn memoise(&self) -> bool {
        false
    }

    fn cache_salt(&self) -> String {
        let mut salt =
            String::from(if self.exact_growth { "measured:exact" } else { "measured:fit" });
        for calibration in &self.calibrations {
            salt.push_str(&format!(":{:016x}", calibration.fingerprint()));
        }
        salt
    }

    fn evaluate(&self, scenario: &Scenario<'_>) -> Result<f64, DseError> {
        let model = self.model(scenario)?;
        speedup_extended(&model, scenario)
    }

    fn evaluate_batch_prepared(
        &self,
        space: &ScenarioSpace,
        tables: &SpaceTables,
        range: std::ops::Range<usize>,
        out: &mut [f64],
    ) {
        assert_eq!(out.len(), range.len());
        for_each_design_run(space, range, |index, offset, run| {
            let ix = space.decode(index);
            let out = &mut out[offset..offset + run];
            let Some((app, growth)) = self.resolve(&space.apps()[ix.app].name) else {
                out.fill(f64::NAN);
                return;
            };
            // The calibration supplies the growth function, so its samples
            // are evaluated at the designs' thread counts directly instead of
            // read from the space-axis growth column. Growth functions branch
            // and interpolate, so sampling is its own scalar pass.
            let model = PreparedModel::new(app, growth, space.perfs()[ix.perf]);
            let cores = &tables.cores(ix.budget)[ix.design..ix.design + run];
            for (slot, &threads) in out.iter_mut().zip(cores) {
                *slot = model.growth_sample(threads);
            }
            let total_bce = space.budgets()[ix.budget];
            eval_design_run_dispatch(&model, tables, total_bce, &ix, None, out);
        });
    }
}

/// The trace-driven simulation backend.
///
/// Synthesises a phase program whose single-core section times reproduce the
/// application's `f` / `fcon` / `fred` split over a budget of
/// [`SimBackend::with_total_ops`] operations, then times it with the
/// `mp-cmpsim` engine on the scenario's machine. The merge implementation
/// comes from the scenario's reduction-strategy axis; the reduction-overhead
/// *growth* is whatever the simulator's core, cache and NoC models produce
/// (linear from a serial merge while the partials stay cache-resident,
/// super-linear once they spill — the hop effect). Speedups are normalised to
/// a simulated single 1-BCE core, like the paper's Figure 2 runs.
///
/// The core performance model is the simulator's own (Pollack); the
/// scenario's perf and growth axes are ignored.
///
/// Machines are discrete: the simulated core count is `floor(budget / r)`
/// (the analytic models allow fractional counts, and `EvalRecord::cores`
/// always reports the design's analytic value). Prefer core sizes that
/// divide the budget — e.g. integer or power-of-two grids — when sweeping
/// this backend, so neighbouring grid points do not silently simulate the
/// same machine under different labels.
pub struct SimBackend {
    config: MachineConfig,
    total_ops: f64,
    baselines: Mutex<HashMap<(u64, u64, u64, u8), f64>>,
}

impl Default for SimBackend {
    fn default() -> Self {
        SimBackend::new()
    }
}

impl SimBackend {
    /// Backend with the paper's Table I machine configuration and a 10⁷-op
    /// synthetic program.
    pub fn new() -> Self {
        SimBackend {
            config: MachineConfig::table1_baseline(),
            total_ops: 1e7,
            baselines: Mutex::new(HashMap::new()),
        }
    }

    /// Override the synthetic single-core operation budget. Smaller budgets
    /// shrink the merge working set (keeping it cache-resident — closer to
    /// the analytic model); larger budgets surface cache-spill effects.
    pub fn with_total_ops(mut self, total_ops: f64) -> Self {
        assert!(total_ops.is_finite() && total_ops >= 1e3, "total_ops must be at least 1e3");
        self.total_ops = total_ops;
        self
    }

    fn reduction_kind(strategy: ReductionStrategy) -> ReductionKind {
        match strategy {
            ReductionStrategy::SerialLinear => ReductionKind::SerialLinear,
            ReductionStrategy::TreeLog => ReductionKind::TreeLog,
            ReductionStrategy::ParallelPrivatized => ReductionKind::ParallelPrivatized,
        }
    }

    fn program(&self, scenario: &Scenario<'_>) -> PhaseProgram {
        let app = scenario.app;
        let parallel_ops = app.f * self.total_ops;
        let serial_ops = app.fcon_abs() * self.total_ops;
        // One element-merge costs ~3 cycles while the partial tables stay
        // L1-resident (1 compute + 2 cycles L1 latency), so dividing by three
        // makes the single-core reduction *cycle* fraction equal the
        // application's `fred`: the simulated and analytic models then start
        // from the same serial split, and deviations beyond that are real
        // microarchitectural effects (cache spills, coherence, NoC).
        let elements = (app.fred_abs() * self.total_ops / 3.0).round().max(1.0) as usize;
        PhaseProgram::new(app.name.clone())
            .with_body(PhaseOp::ParallelWork {
                label: "parallel".into(),
                ops: parallel_ops,
                memory_refs: 0.0,
                working_set_bytes: 64,
                max_parallelism: None,
            })
            .with_body(PhaseOp::Reduction {
                label: "merge".into(),
                elements,
                ops_per_element: 1.0,
                bytes_per_element: 8,
                kind: Self::reduction_kind(scenario.reduction),
            })
            .with_body(PhaseOp::SerialWork {
                label: "serial-constant".into(),
                ops: serial_ops,
                memory_refs: 0.0,
                working_set_bytes: 64,
            })
    }

    fn machine(&self, scenario: &Scenario<'_>) -> Option<Machine> {
        scenario
            .design
            .fits(scenario.budget)
            .then(|| self.machine_for(scenario.design, scenario.budget.total_bce()))
    }

    fn baseline_cycles(&self, scenario: &Scenario<'_>, program: &PhaseProgram) -> f64 {
        let app = scenario.app;
        let key = (
            app.f.to_bits(),
            app.split.fcon.to_bits(),
            self.total_ops.to_bits(),
            match scenario.reduction {
                ReductionStrategy::SerialLinear => 0u8,
                ReductionStrategy::TreeLog => 1,
                ReductionStrategy::ParallelPrivatized => 2,
            },
        );
        if let Some(&cycles) = self.baselines.lock().get(&key) {
            return cycles;
        }
        let cycles = simulate_cycles(program, &Machine::symmetric(1, 1.0, self.config));
        self.baselines.lock().insert(key, cycles);
        cycles
    }

    /// The simulated machine of one design under `total_bce`, assuming the
    /// design already passed its fit check. Same discretisation as
    /// [`SimBackend::machine`].
    fn machine_for(&self, design: ChipSpec, total_bce: f64) -> Machine {
        match design {
            ChipSpec::Symmetric { r } => {
                let cores = (total_bce / r).floor().max(1.0) as usize;
                Machine::symmetric(cores, r, self.config)
            }
            ChipSpec::Asymmetric { r, rl } => {
                let small = ((total_bce - rl) / r).floor().max(0.0) as usize;
                Machine::asymmetric(small, r, rl, self.config)
            }
        }
    }
}

impl EvalBackend for SimBackend {
    fn name(&self) -> &'static str {
        "cmpsim"
    }

    fn cache_salt(&self) -> String {
        // The machine configuration and operation budget change every result;
        // Debug formatting of the config is deterministic and covers all of
        // its fields.
        format!("cmpsim:{:016x}:{:?}", self.total_ops.to_bits(), self.config)
    }

    fn evaluate(&self, scenario: &Scenario<'_>) -> Result<f64, DseError> {
        let machine = self.machine(scenario).ok_or(DseError::InvalidDesign {
            area: scenario.design.area(),
            budget: scenario.budget.total_bce(),
        })?;
        let program = self.program(scenario);
        let baseline = self.baseline_cycles(scenario, &program);
        let cycles = simulate_cycles(&program, &machine);
        Ok(baseline / cycles)
    }

    fn evaluate_batch_prepared(
        &self,
        space: &ScenarioSpace,
        tables: &SpaceTables,
        range: std::ops::Range<usize>,
        out: &mut [f64],
    ) {
        assert_eq!(out.len(), range.len());
        for_each_design_run(space, range, |index, offset, run| {
            // The program and its single-core baseline depend only on the
            // shared axes (application, reduction strategy), so both are
            // resolved once per run; the per-design loop is machine assembly
            // plus the allocation-free cycle kernel.
            let scenario = space.scenario(index);
            let program = self.program(&scenario);
            let baseline = self.baseline_cycles(&scenario, &program);
            let ix = space.decode(index);
            let fits = tables.fits_bits(ix.budget);
            let total_bce = space.budgets()[ix.budget];
            let designs = space.designs();
            for (k, slot) in out[offset..offset + run].iter_mut().enumerate() {
                let di = ix.design + k;
                *slot = if fits[di] == 0 {
                    f64::NAN
                } else {
                    let machine = self.machine_for(designs[di], total_bce);
                    baseline / simulate_cycles(&program, &machine)
                };
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mp_model::growth::GrowthFunction;
    use mp_model::params::AppParams;
    use mp_model::perf::PerfModel;
    use mp_model::topology::Topology;

    fn scenario(design: ChipSpec) -> Scenario<'static> {
        use std::sync::OnceLock;
        static APP: OnceLock<AppParams> = OnceLock::new();
        static GROWTH: OnceLock<GrowthFunction> = OnceLock::new();
        Scenario {
            app: APP.get_or_init(AppParams::table2_kmeans),
            budget: mp_model::chip::ChipBudget::paper_default(),
            design,
            growth: GROWTH.get_or_init(|| GrowthFunction::Linear),
            perf: PerfModel::Pollack,
            reduction: ReductionStrategy::SerialLinear,
            topology: Topology::Mesh2D,
        }
    }

    #[test]
    fn analytic_matches_direct_model_evaluation() {
        let s = scenario(ChipSpec::Symmetric { r: 4.0 });
        let got = AnalyticBackend.evaluate(&s).unwrap();
        let model = ExtendedModel::new(s.app.clone(), GrowthFunction::Linear, PerfModel::Pollack);
        let expect =
            model.speedup_symmetric(&SymmetricDesign::new(s.budget, 4.0).unwrap()).unwrap();
        assert_eq!(got.to_bits(), expect.to_bits());
    }

    #[test]
    fn analytic_rejects_unfit_designs() {
        let s = scenario(ChipSpec::Symmetric { r: 512.0 });
        assert!(matches!(AnalyticBackend.evaluate(&s), Err(DseError::InvalidDesign { .. })));
    }

    #[test]
    fn comm_is_more_pessimistic_than_analytic_on_mesh() {
        // Communication overhead only removes speedup relative to the same
        // model with constant (free) communication growth.
        let s = Scenario {
            growth: &GrowthFunction::Constant,
            ..scenario(ChipSpec::Symmetric { r: 4.0 })
        };
        let mesh = CommBackend::new().evaluate(&s).unwrap();
        let ideal = CommBackend::new()
            .evaluate(&Scenario { topology: Topology::Ideal, ..s.clone() })
            .unwrap();
        assert!(mesh < ideal);
    }

    #[test]
    fn sim_speedup_is_one_on_the_baseline_machine() {
        let s = Scenario {
            budget: mp_model::chip::ChipBudget::new(1.0),
            ..scenario(ChipSpec::Symmetric { r: 1.0 })
        };
        let backend = SimBackend::new();
        let speedup = backend.evaluate(&s).unwrap();
        assert!((speedup - 1.0).abs() < 1e-12);
    }

    #[test]
    fn sim_acmp_beats_cmp_on_serial_heavy_app() {
        let app = AppParams::new("serial-heavy", 0.9, 0.9, 0.1, 0.0).unwrap();
        let growth = GrowthFunction::Linear;
        let base = scenario(ChipSpec::Symmetric { r: 1.0 });
        let sym = Scenario { app: &app, growth: &growth, ..base.clone() };
        let asym = Scenario {
            app: &app,
            growth: &growth,
            design: ChipSpec::Asymmetric { r: 1.0, rl: 64.0 },
            ..base
        };
        let backend = SimBackend::new();
        assert!(backend.evaluate(&asym).unwrap() > backend.evaluate(&sym).unwrap());
    }

    fn synthetic_calibration(name: &str, f: f64, fcon: f64, fored: f64) -> CalibratedParams {
        use mp_model::calibrate::MeasuredRun;
        let s = 1.0 - f;
        let runs: Vec<MeasuredRun> = [1usize, 2, 4, 8, 16]
            .iter()
            .map(|&p| {
                MeasuredRun::new(
                    p,
                    f / p as f64,
                    s * fcon,
                    s * (1.0 - fcon) * (1.0 + fored * (p as f64 - 1.0)),
                )
            })
            .collect();
        CalibratedParams::fit(name, &runs).unwrap()
    }

    #[test]
    fn measured_backend_tracks_the_analytic_model_it_fitted() {
        let calibration = synthetic_calibration("cal-app", 0.99, 0.6, 0.8);
        let backend = MeasuredBackend::new(vec![calibration.clone()]);
        let space = ScenarioSpace::new()
            .with_apps(backend.apps())
            .clear_designs()
            .add_symmetric_grid([1.0, 2.0, 4.0, 16.0, 64.0]);
        for index in 0..space.len() {
            let scenario = space.scenario(index);
            let measured = backend.evaluate(&scenario).unwrap();
            // The calibration recovered a linear growth with the seeded fored,
            // so the analytic model on the same axes must agree closely.
            let analytic = AnalyticBackend.evaluate(&scenario).unwrap();
            assert!(
                (measured - analytic).abs() / analytic < 1e-6,
                "index {index}: {measured} vs {analytic}"
            );
        }
    }

    #[test]
    fn measured_backend_rejects_uncalibrated_applications() {
        let backend = MeasuredBackend::new(vec![synthetic_calibration("known", 0.99, 0.5, 0.5)]);
        let s = scenario(ChipSpec::Symmetric { r: 4.0 }); // app name "kmeans"
        assert!(matches!(backend.evaluate(&s), Err(DseError::Model(_))));
        // And in batch mode the slot becomes NaN rather than poisoning the
        // sweep.
        let space = ScenarioSpace::new();
        let tables = SpaceTables::new(&space);
        let mut out = vec![0.0; space.len()];
        backend.evaluate_batch_prepared(&space, &tables, 0..space.len(), &mut out);
        assert!(out.iter().all(|v| v.is_nan()));
    }

    #[test]
    fn measured_batch_and_single_agree_bitwise() {
        let backend = MeasuredBackend::new(vec![
            synthetic_calibration("a", 0.999, 0.9, 0.1),
            synthetic_calibration("b", 0.99, 0.6, 0.8),
        ]);
        let space = ScenarioSpace::new()
            .with_apps(backend.apps())
            .clear_designs()
            .add_symmetric_grid([1.0, 2.0, 8.0, 300.0]);
        let tables = SpaceTables::new(&space);
        let mut batch = vec![0.0; space.len()];
        backend.evaluate_batch_prepared(&space, &tables, 0..space.len(), &mut batch);
        for (i, &got) in batch.iter().enumerate() {
            let s = space.scenario(i);
            let expect = if s.design.fits(s.budget) {
                backend.evaluate(&s).unwrap_or(f64::NAN)
            } else {
                f64::NAN
            };
            assert_eq!(got.to_bits(), expect.to_bits(), "index {i}");
        }
    }

    #[test]
    fn exact_growth_mode_changes_the_salt_and_the_numbers() {
        // A hop-like super-linear calibration where the closed-form fit and
        // the empirical curve genuinely differ between measured points.
        use mp_model::calibrate::MeasuredRun;
        let f = 0.999;
        let s = 1.0 - f;
        let runs: Vec<MeasuredRun> = [1usize, 2, 3, 4, 8, 16]
            .iter()
            .map(|&p| {
                let wobble = if p == 3 { 1.5 } else { 1.0 };
                MeasuredRun::new(
                    p,
                    f / p as f64,
                    s * 0.5,
                    s * 0.5 * (1.0 + 0.9 * wobble * (p as f64 - 1.0)),
                )
            })
            .collect();
        let calibration = CalibratedParams::fit("wobbly", &runs).unwrap();
        let fit = MeasuredBackend::new(vec![calibration.clone()]);
        let exact = MeasuredBackend::new(vec![calibration]).with_exact_growth();
        assert_ne!(fit.cache_salt(), exact.cache_salt());
        let space =
            ScenarioSpace::new().with_apps(fit.apps()).clear_designs().add_symmetric_grid([85.0]); // ~3 cores: the wobbled point
        let a = fit.evaluate(&space.scenario(0)).unwrap();
        let b = exact.evaluate(&space.scenario(0)).unwrap();
        assert!((a - b).abs() > 1e-9, "fit {a} vs exact {b} should differ");
    }

    #[test]
    fn default_batch_is_the_per_scenario_loop_with_nan_for_unfit_and_err() {
        /// Implements only `name` + `evaluate`: answers the core size, except
        /// for 2-BCE cores, which it rejects.
        struct Minimal;
        impl EvalBackend for Minimal {
            fn name(&self) -> &'static str {
                "minimal"
            }
            fn evaluate(&self, scenario: &Scenario<'_>) -> Result<f64, DseError> {
                match scenario.design {
                    ChipSpec::Symmetric { r } if r != 2.0 => Ok(r),
                    _ => Err(DseError::InvalidDesign { area: 2.0, budget: 0.0 }),
                }
            }
        }
        let space = ScenarioSpace::new().clear_designs().add_symmetric_grid([1.0, 2.0, 4.0, 300.0]);
        let mut batch = [0.0; 3];
        Minimal.evaluate_batch_prepared(&space, &SpaceTables::new(&space), 1..4, &mut batch);
        // Index 1 is an `Err`, index 2 evaluates, index 3 does not fit 256 BCE.
        assert!(batch[0].is_nan() && batch[2].is_nan(), "{batch:?}");
        assert_eq!(batch[1].to_bits(), 4.0f64.to_bits());
    }

    #[test]
    fn batch_and_single_evaluation_agree_bitwise() {
        let space = ScenarioSpace::new()
            .with_apps(AppParams::table2_all())
            .clear_designs()
            .add_symmetric_grid([1.0, 2.0, 4.0, 8.0, 300.0])
            .with_growths(vec![GrowthFunction::Linear, GrowthFunction::Logarithmic]);
        let tables = SpaceTables::new(&space);
        for backend in [&AnalyticBackend as &dyn EvalBackend, &CommBackend::new()] {
            let mut batch = vec![0.0; space.len()];
            backend.evaluate_batch_prepared(&space, &tables, 0..space.len(), &mut batch);
            for (i, &got) in batch.iter().enumerate() {
                let scenario = space.scenario(i);
                let expect = if scenario.design.fits(scenario.budget) {
                    backend.evaluate(&scenario).unwrap_or(f64::NAN)
                } else {
                    f64::NAN
                };
                assert_eq!(got.to_bits(), expect.to_bits(), "index {i}");
            }
        }
    }

    /// Lift `model` onto a one-point space — its comp growth on the growth
    /// axis, its perf model and topology on theirs — and sweep the
    /// power-of-two symmetric grid plus the `r = 4` asymmetric grid on an
    /// engine with the model's split. Asserts the swept `(area, cores,
    /// speedup)` bits equal those of `explore`'s comm loops on the same grids
    /// and returns them.
    fn comm_sweep_matching_explore(model: &CommModel) -> Vec<[u64; 3]> {
        use crate::engine::{Engine, SweepConfig};
        use mp_model::explore::{asymmetric_curve_comm, symmetric_curve_comm};

        let budget = mp_model::chip::ChipBudget::paper_default();
        let sizes = budget.power_of_two_core_sizes();
        let rls: Vec<f64> = sizes.iter().copied().filter(|rl| (4.0..256.0).contains(rl)).collect();
        let space = ScenarioSpace::new()
            .with_apps(vec![model.params().clone()])
            .with_growths(vec![model.comp_growth().clone()])
            .with_perfs(vec![*model.perf()])
            .with_topologies(vec![model.topology()])
            .clear_designs()
            .add_symmetric_grid(sizes)
            .add_asymmetric_grid([4.0], rls);
        let backend = CommBackend::new().with_split(model.split());
        let records = Engine::new(1).sweep(&space, &backend, &SweepConfig::default()).records;
        let swept: Vec<_> =
            records.iter().map(|r| [r.area, r.cores, r.speedup].map(f64::to_bits)).collect();

        let symmetric = symmetric_curve_comm(model, budget, "s").unwrap().points;
        let asymmetric = asymmetric_curve_comm(model, budget, 4.0, "a").unwrap().points;
        let explored: Vec<_> = symmetric
            .iter()
            .chain(&asymmetric)
            .map(|p| [p.area, p.cores, p.speedup].map(f64::to_bits))
            .collect();
        assert_eq!(swept.len(), 9 + 6);
        assert_eq!(swept, explored);
        swept
    }

    #[test]
    fn comm_curve_honours_the_models_comp_growth() {
        // A serial (linear-growth) merge configuration must reach the
        // backend through the growth axis, not be replaced by the Figure 7
        // constant growth — and the two growths genuinely disagree, so the
        // check bites.
        let constant = CommModel::paper_figure7(AppParams::table2_kmeans()).unwrap();
        let linear = constant.clone().with_comp_growth(GrowthFunction::Linear);
        assert_ne!(comm_sweep_matching_explore(&linear), comm_sweep_matching_explore(&constant));
    }

    #[test]
    fn comm_curve_honours_the_models_perf_model() {
        // Power(0.75) cores genuinely differ from Pollack, so the check bites.
        let params = AppParams::table2_kmeans();
        let power = CommModel::new(
            params.clone(),
            CommSplit::ideal(params.split.fred).unwrap(),
            GrowthFunction::Constant,
            Topology::Mesh2D,
            PerfModel::Power(0.75),
        );
        let pollack = CommModel::paper_figure7(params).unwrap();
        assert_ne!(comm_sweep_matching_explore(&power), comm_sweep_matching_explore(&pollack));
    }

    #[test]
    fn comm_curve_honours_an_explicit_split() {
        // The skewed split genuinely differs from the ideal one the backend
        // derives by default, so the check bites.
        let params = AppParams::table2_kmeans();
        let skewed = CommModel::new(
            params.clone(),
            CommSplit::new(0.1, 0.33).unwrap(),
            GrowthFunction::Constant,
            Topology::Mesh2D,
            PerfModel::Pollack,
        );
        let ideal = CommModel::paper_figure7(params).unwrap();
        assert_ne!(comm_sweep_matching_explore(&skewed), comm_sweep_matching_explore(&ideal));
    }
}
