//! Calibration: fitting the paper's model parameters to measured phase times.
//!
//! A run is its phase records; [`crate::phase::RunProfile::to_measured_run`]
//! folds them into one [`MeasuredRun`] of section totals per thread count.
//! This module closes the loop the paper describes in Section V-A —
//! *measure → extract `f`, `fred`, `fcon` → model*:
//!
//! * [`RunAccounting`] reads `f`, `fcon`, `fred` from the single-thread run
//!   exactly as in the paper (initialisation excluded), the Figure 2(a)/(b)
//!   series from the whole sweep, and fits `fored` for a given growth shape
//!   ([`RunAccounting::fored`], the paper's fixed-linear fit for Table II),
//! * [`CalibratedParams::fit`] fits a complete set (application parameters
//!   **plus** a growth function): `fored` and the growth *shape* are chosen
//!   together — every candidate shape (constant, linear, logarithmic,
//!   super-linear) goes through [`RunAccounting::fored`] and the shape with
//!   the smallest residual wins — and the raw observations are additionally
//!   preserved as a [`GrowthFunction::Measured`] curve, so a consumer can
//!   choose between the best closed form (extrapolates smoothly) and the
//!   exact empirical curve (reproduces the measurements bit-for-bit at the
//!   measured counts).
//!
//! The result plugs straight into [`crate::extended::ExtendedModel`] and the
//! design-space backends.

use serde::{Deserialize, Serialize};

use crate::error::ModelError;
use crate::fingerprint::Fnv64;
use crate::growth::GrowthFunction;
use crate::params::AppParams;

/// Aggregated per-phase times of one instrumented run at a fixed thread
/// count. This is the model-level view of a run profile: only the section
/// totals the paper's accounting uses, with initialisation already excluded.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MeasuredRun {
    /// Thread count of the run.
    pub threads: usize,
    /// Total time in the parallel section, in seconds.
    pub parallel_seconds: f64,
    /// Total time in constant serial work, in seconds.
    pub serial_constant_seconds: f64,
    /// Total time in the merging (reduction) phase, in seconds.
    pub reduction_seconds: f64,
    /// Total time in merge communication, in seconds (zero for shared-memory
    /// runs; the simulator reports it separately).
    pub communication_seconds: f64,
}

impl MeasuredRun {
    /// A run with no communication time (the common shared-memory case).
    pub fn new(
        threads: usize,
        parallel_seconds: f64,
        serial_constant_seconds: f64,
        reduction_seconds: f64,
    ) -> Self {
        MeasuredRun {
            threads,
            parallel_seconds,
            serial_constant_seconds,
            reduction_seconds,
            communication_seconds: 0.0,
        }
    }

    /// Total time of the run (init excluded, as in the paper's accounting).
    pub fn total_seconds(&self) -> f64 {
        self.parallel_seconds + self.serial_seconds()
    }

    /// Time in the serial section: constant + reduction + communication.
    pub fn serial_seconds(&self) -> f64 {
        self.serial_constant_seconds + self.reduction_seconds + self.communication_seconds
    }

    /// Time in the merging phase (reduction + its communication).
    pub fn merge_seconds(&self) -> f64 {
        self.reduction_seconds + self.communication_seconds
    }
}

/// The paper's Section V-A accounting over a sweep of measured runs: the
/// single-thread fractions plus the per-thread-count series. Every parameter
/// the figures, tables and [`CalibratedParams::fit`] report is read from
/// here, so there is one fold from section totals to the paper's numbers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunAccounting {
    /// Parallel fraction `f` of the single-thread run (init excluded).
    pub f: f64,
    /// Measured serial fraction of the single-thread run.
    pub serial_fraction: f64,
    /// Constant fraction of the serial time, `fcon`.
    pub fcon: f64,
    /// Merge fraction of the serial time, `fred`.
    pub fred: f64,
    /// Serial-section multipliers `(threads, serial(p)/serial(1))`, sorted by
    /// thread count — the Figure 2(b)/(c) series.
    pub serial_multipliers: Vec<(usize, f64)>,
    /// Speedups `(threads, total(1)/total(p))`, sorted by thread count — the
    /// Figure 2(a) series.
    pub speedups: Vec<(usize, f64)>,
}

impl RunAccounting {
    /// Compute the accounting from measured runs. Runs may arrive in any
    /// order; duplicate thread counts keep the last observation.
    ///
    /// # Errors
    /// Returns [`ModelError::Calibration`] when no single-thread baseline is
    /// present or its total time is degenerate.
    pub fn from_runs(runs: &[MeasuredRun]) -> Result<Self, ModelError> {
        let mut by_threads: Vec<MeasuredRun> = Vec::new();
        for run in runs {
            match by_threads.iter_mut().find(|r| r.threads == run.threads) {
                Some(slot) => *slot = *run,
                None => by_threads.push(*run),
            }
        }
        by_threads.sort_by_key(|r| r.threads);

        let base = by_threads
            .iter()
            .find(|r| r.threads == 1)
            .copied()
            .ok_or(ModelError::Calibration { what: "no single-thread baseline run" })?;
        let total = base.total_seconds();
        if !(total.is_finite() && total > 0.0) {
            return Err(ModelError::Calibration {
                what: "single-thread total time is not positive",
            });
        }

        let f = (base.parallel_seconds / total).clamp(0.0, 1.0);
        let serial = base.serial_seconds();
        let serial_fraction = (serial / total).clamp(0.0, 1.0);
        let (fcon, fred) = if serial > 0.0 {
            (
                (base.serial_constant_seconds / serial).clamp(0.0, 1.0),
                (base.merge_seconds() / serial).clamp(0.0, 1.0),
            )
        } else {
            (1.0, 0.0)
        };

        let serial_multipliers: Vec<(usize, f64)> = by_threads
            .iter()
            .map(|r| (r.threads, if serial > 0.0 { r.serial_seconds() / serial } else { 1.0 }))
            .collect();
        let speedups: Vec<(usize, f64)> = by_threads
            .iter()
            .map(|r| (r.threads, total / r.total_seconds().max(f64::MIN_POSITIVE)))
            .collect();

        Ok(RunAccounting { f, serial_fraction, fcon, fred, serial_multipliers, speedups })
    }

    /// The reduction-overhead coefficient `fored` that best explains the
    /// serial-section growth under the given growth shape: the least-squares
    /// solution of `multiplier(p) − 1 = fred·fored·grow(p)` over every
    /// observation with `grow(p) > 0`, clamped at zero. Zero when no
    /// observation constrains it (no merge time, or only single-thread runs).
    pub fn fored(&self, growth: &GrowthFunction) -> f64 {
        let mut num = 0.0;
        let mut den = 0.0;
        for &(p, mult) in &self.serial_multipliers {
            let g = growth.eval(p as f64);
            if g > 0.0 && self.fred > 0.0 {
                let x = self.fred * g;
                num += x * (mult - 1.0);
                den += x * x;
            }
        }
        if den > 0.0 {
            (num / den).max(0.0)
        } else {
            0.0
        }
    }
}

/// One candidate growth shape with its least-squares fit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GrowthFit {
    /// The candidate shape.
    pub growth: GrowthFunction,
    /// Fitted reduction-overhead coefficient for this shape.
    pub fored: f64,
    /// Root-mean-square residual of the serial-multiplier fit.
    pub rmse: f64,
}

/// A complete calibrated parameter set: application parameters plus the
/// growth function that best explains the measured serial-section growth.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CalibratedParams {
    app: AppParams,
    growth: GrowthFunction,
    fit_rmse: f64,
    serial_multipliers: Vec<(usize, f64)>,
    candidates: Vec<GrowthFit>,
}

/// The candidate growth shapes tried by [`CalibratedParams::fit`], simplest
/// first (ties in residual go to the earlier entry).
fn candidate_shapes() -> Vec<GrowthFunction> {
    vec![
        GrowthFunction::Constant,
        GrowthFunction::Logarithmic,
        GrowthFunction::Linear,
        GrowthFunction::Superlinear(1.25),
        GrowthFunction::Superlinear(1.5),
        GrowthFunction::Superlinear(1.75),
        GrowthFunction::Superlinear(2.0),
    ]
}

impl CalibratedParams {
    /// Fit a calibrated parameter set named `name` to measured runs.
    ///
    /// Requires a single-thread run with positive total time (the paper's
    /// baseline); multi-thread runs constrain the growth fit. Runs may arrive
    /// in any order; duplicate thread counts keep the last observation.
    ///
    /// # Errors
    /// Returns [`ModelError::Calibration`] when no single-thread baseline is
    /// present or its measured times are degenerate.
    pub fn fit(name: impl Into<String>, runs: &[MeasuredRun]) -> Result<Self, ModelError> {
        let accounting = RunAccounting::from_runs(runs)?;

        let mut candidates = Vec::new();
        for shape in candidate_shapes() {
            let fored = accounting.fored(&shape);
            let rmse = fit_rmse(&accounting, fored, &shape);
            candidates.push(GrowthFit { growth: shape, fored, rmse });
        }
        let best = candidates
            .iter()
            .min_by(|a, b| a.rmse.partial_cmp(&b.rmse).unwrap_or(std::cmp::Ordering::Equal))
            .cloned()
            .expect("candidate list is never empty");

        let app = AppParams::new(name, accounting.f, accounting.fcon, best.fored, 0.0)?;
        Ok(CalibratedParams {
            app,
            growth: best.growth,
            fit_rmse: best.rmse,
            serial_multipliers: accounting.serial_multipliers,
            candidates,
        })
    }

    /// The calibrated application parameters (with the best-fit `fored`).
    pub fn app_params(&self) -> &AppParams {
        &self.app
    }

    /// The best-fitting closed-form growth function.
    pub fn growth(&self) -> &GrowthFunction {
        &self.growth
    }

    /// Root-mean-square residual of the winning fit.
    pub fn fit_rmse(&self) -> f64 {
        self.fit_rmse
    }

    /// The observed serial-section multipliers the fit was computed from.
    pub fn serial_multipliers(&self) -> &[(usize, f64)] {
        &self.serial_multipliers
    }

    /// All candidate fits, in the order they were tried.
    pub fn candidates(&self) -> &[GrowthFit] {
        &self.candidates
    }

    /// The empirical growth curve: a [`GrowthFunction::Measured`] that, used
    /// with [`CalibratedParams::exact_app_params`] (`fored = 1`), reproduces
    /// the observed serial multipliers exactly at the measured thread counts
    /// and extrapolates linearly beyond them.
    pub fn exact_growth(&self) -> GrowthFunction {
        let fred = self.app.split.fred;
        if fred <= 0.0 {
            return GrowthFunction::Constant;
        }
        let points: Vec<(f64, f64)> = self
            .serial_multipliers
            .iter()
            .map(|&(p, mult)| (p as f64, ((mult - 1.0) / fred).max(0.0)))
            .collect();
        GrowthFunction::Measured(points)
    }

    /// Application parameters paired with [`CalibratedParams::exact_growth`]:
    /// identical split but `fored = 1`, so the measured curve carries the
    /// whole overhead.
    pub fn exact_app_params(&self) -> AppParams {
        AppParams::new(self.app.name.clone(), self.app.f, self.app.split.fcon, 1.0, 0.0)
            .expect("calibrated fractions are valid")
    }

    /// Serial-section multiplier predicted by the calibrated closed form at
    /// `threads` threads (for fit-quality reports).
    pub fn predicted_multiplier(&self, threads: f64) -> f64 {
        let split = self.app.split;
        split.fcon + split.fred * (1.0 + self.app.fored * self.growth.eval(threads))
    }

    /// Stable content fingerprint, for memoisation-cache salts.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv64::new();
        h.write_str(&self.app.name);
        h.write_f64(self.app.f);
        h.write_f64(self.app.split.fcon);
        h.write_f64(self.app.split.fred);
        h.write_f64(self.app.fored);
        h.write_str(&self.growth.label());
        for &(p, m) in &self.serial_multipliers {
            h.write_f64(p as f64);
            h.write_f64(m);
        }
        h.finish()
    }
}

/// RMS residual of `mult(p) ≈ fcon + fred·(1 + fored·grow(p))` over the
/// multi-thread observations (the single-thread point is 1 by construction).
fn fit_rmse(accounting: &RunAccounting, fored: f64, growth: &GrowthFunction) -> f64 {
    let (fcon, fred) = (accounting.fcon, accounting.fred);
    let mut sum = 0.0;
    let mut n = 0usize;
    for &(p, mult) in &accounting.serial_multipliers {
        if p <= 1 {
            continue;
        }
        let predicted = fcon + fred * (1.0 + fored * growth.eval(p as f64));
        let err = predicted - mult;
        sum += err * err;
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        (sum / n as f64).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Build runs following the extended model exactly: parallel f/p, constant
    /// serial fcon·s, reduction fred·s·(1 + fored·grow(p)).
    fn synthetic_runs(f: f64, fcon: f64, fored: f64, growth: &GrowthFunction) -> Vec<MeasuredRun> {
        let s = 1.0 - f;
        [1usize, 2, 4, 8, 16]
            .iter()
            .map(|&p| {
                MeasuredRun::new(
                    p,
                    f / p as f64,
                    s * fcon,
                    s * (1.0 - fcon) * (1.0 + fored * growth.eval(p as f64)),
                )
            })
            .collect()
    }

    #[test]
    fn accounting_sorts_and_dedupes_runs() {
        let mut runs = synthetic_runs(0.99, 0.6, 0.8, &GrowthFunction::Linear);
        runs.reverse();
        // A bogus early duplicate of the 4-thread run must be overridden by
        // the later (real) one.
        runs.insert(0, MeasuredRun::new(4, 9.0, 9.0, 9.0));
        let acc = RunAccounting::from_runs(&runs).unwrap();
        assert!((acc.f - 0.99).abs() < 1e-9);
        assert!((acc.fcon - 0.6).abs() < 1e-9);
        let threads: Vec<usize> = acc.serial_multipliers.iter().map(|&(t, _)| t).collect();
        assert_eq!(threads, vec![1, 2, 4, 8, 16]);
        assert!((acc.serial_multipliers[0].1 - 1.0).abs() < 1e-12);
        assert_eq!(acc.speedups.len(), 5);
        assert!(acc.speedups[4].1 > acc.speedups[0].1);
    }

    fn accounting(fred: f64, serial_multipliers: Vec<(usize, f64)>) -> RunAccounting {
        RunAccounting {
            f: 0.99,
            serial_fraction: 0.01,
            fcon: 1.0 - fred,
            fred,
            serial_multipliers,
            speedups: Vec::new(),
        }
    }

    #[test]
    fn fored_without_information_is_zero() {
        assert_eq!(accounting(0.4, vec![(1, 1.0)]).fored(&GrowthFunction::Linear), 0.0);
        assert_eq!(accounting(0.0, vec![(8, 3.0)]).fored(&GrowthFunction::Linear), 0.0);
    }

    #[test]
    fn fored_clamps_negative_noise_to_zero() {
        // Observations *below* 1.0 (measurement noise) must not produce a
        // negative coefficient.
        let acc = accounting(0.4, vec![(1, 1.0), (8, 0.9), (16, 0.95)]);
        assert_eq!(acc.fored(&GrowthFunction::Linear), 0.0);
    }

    #[test]
    fn fit_recovers_linear_parameters() {
        let runs = synthetic_runs(0.99, 0.6, 0.8, &GrowthFunction::Linear);
        let c = CalibratedParams::fit("synthetic", &runs).unwrap();
        assert!((c.app_params().f - 0.99).abs() < 1e-9);
        assert!((c.app_params().split.fcon - 0.6).abs() < 1e-9);
        assert!((c.app_params().split.fred - 0.4).abs() < 1e-9);
        assert!((c.app_params().fored - 0.8).abs() < 1e-6, "fored {}", c.app_params().fored);
        assert_eq!(c.growth(), &GrowthFunction::Linear);
        assert!(c.fit_rmse() < 1e-9);
    }

    #[test]
    fn fit_selects_logarithmic_shape_when_growth_is_logarithmic() {
        let runs = synthetic_runs(0.995, 0.4, 0.6, &GrowthFunction::Logarithmic);
        let c = CalibratedParams::fit("log-app", &runs).unwrap();
        assert_eq!(c.growth(), &GrowthFunction::Logarithmic);
        assert!((c.app_params().fored - 0.6).abs() < 1e-6);
    }

    #[test]
    fn fit_selects_superlinear_shape_for_hop_like_growth() {
        let runs = synthetic_runs(0.999, 0.88, 1.55, &GrowthFunction::Superlinear(1.5));
        let c = CalibratedParams::fit("hop-like", &runs).unwrap();
        assert_eq!(c.growth(), &GrowthFunction::Superlinear(1.5));
        assert!((c.app_params().fored - 1.55).abs() < 1e-6);
    }

    #[test]
    fn zero_merge_workload_calibrates_to_constant_growth() {
        let runs = synthetic_runs(0.99, 1.0, 0.0, &GrowthFunction::Linear);
        let c = CalibratedParams::fit("no-merge", &runs).unwrap();
        assert_eq!(c.app_params().split.fred, 0.0);
        assert_eq!(c.growth(), &GrowthFunction::Constant);
        assert_eq!(c.exact_growth(), GrowthFunction::Constant);
    }

    #[test]
    fn exact_growth_reproduces_observations() {
        let runs = synthetic_runs(0.99, 0.5, 1.2, &GrowthFunction::Superlinear(1.75));
        let c = CalibratedParams::fit("exact", &runs).unwrap();
        let exact = c.exact_growth();
        let app = c.exact_app_params();
        for &(p, mult) in c.serial_multipliers() {
            let predicted = app.split.fcon + app.split.fred * (1.0 + exact.eval(p as f64));
            assert!((predicted - mult).abs() < 1e-9, "p={p}: {predicted} vs {mult}");
        }
    }

    #[test]
    fn fit_without_baseline_is_an_error() {
        let runs = vec![MeasuredRun::new(4, 0.25, 0.003, 0.004)];
        assert!(matches!(CalibratedParams::fit("x", &runs), Err(ModelError::Calibration { .. })));
    }

    #[test]
    fn degenerate_baseline_is_an_error() {
        let runs = vec![MeasuredRun::new(1, 0.0, 0.0, 0.0)];
        assert!(CalibratedParams::fit("x", &runs).is_err());
    }

    #[test]
    fn duplicate_thread_counts_keep_the_last_run() {
        let mut runs = synthetic_runs(0.99, 0.6, 0.8, &GrowthFunction::Linear);
        // Prepend a bogus single-thread run that the real one must override.
        runs.insert(0, MeasuredRun::new(1, 100.0, 100.0, 100.0));
        let c = CalibratedParams::fit("dup", &runs).unwrap();
        assert!((c.app_params().f - 0.99).abs() < 1e-9);
    }

    #[test]
    fn fingerprint_distinguishes_calibrations() {
        let a =
            CalibratedParams::fit("a", &synthetic_runs(0.99, 0.6, 0.8, &GrowthFunction::Linear))
                .unwrap();
        let b =
            CalibratedParams::fit("a", &synthetic_runs(0.99, 0.6, 0.4, &GrowthFunction::Linear))
                .unwrap();
        assert_ne!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.fingerprint(), a.fingerprint());
    }

    #[test]
    fn predicted_multiplier_matches_model_formula() {
        let runs = synthetic_runs(0.99, 0.6, 0.8, &GrowthFunction::Linear);
        let c = CalibratedParams::fit("pred", &runs).unwrap();
        for &(p, mult) in c.serial_multipliers() {
            assert!((c.predicted_multiplier(p as f64) - mult).abs() < 1e-6);
        }
    }
}
