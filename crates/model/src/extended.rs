//! The paper's extended speedup model (Eq. 4 and Eq. 5): Amdahl/Hill–Marty
//! with a serial fraction that grows with the core count because of the
//! merging (reduction) phase.
//!
//! The serial time at `p` merging threads, relative to the single-core serial
//! time, is
//!
//! ```text
//! serial_multiplier(p) = fcon + fred·(1 + fored·grow(p))
//! ```
//!
//! with `fcon + fred = 1`, so `serial_multiplier(1) = 1`: the single-core
//! execution is unchanged and everything above 1 is overhead introduced by
//! scaling. The speedup expressions then substitute
//! `s·serial_multiplier(p)` for the constant serial fraction of Eq. 2/3.

use serde::{Deserialize, Serialize};

use crate::chip::{AsymmetricDesign, SymmetricDesign};
use crate::error::{check_finite, ModelError};
use crate::growth::GrowthFunction;
use crate::params::AppParams;
use crate::perf::PerfModel;

/// The extended speedup model of paper Section III.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExtendedModel {
    params: AppParams,
    growth: GrowthFunction,
    perf: PerfModel,
}

impl ExtendedModel {
    /// Build a model from application parameters, a reduction-overhead growth
    /// function and a core performance model.
    pub fn new(params: AppParams, growth: GrowthFunction, perf: PerfModel) -> Self {
        ExtendedModel { params, growth, perf }
    }

    /// The application parameters the model was built from.
    pub fn params(&self) -> &AppParams {
        &self.params
    }

    /// The growth function used for the reduction overhead.
    pub fn growth(&self) -> &GrowthFunction {
        &self.growth
    }

    /// The core performance model.
    pub fn perf(&self) -> &PerfModel {
        &self.perf
    }

    /// Replace the growth function (builder-style).
    pub fn with_growth(mut self, growth: GrowthFunction) -> Self {
        self.growth = growth;
        self
    }

    /// Replace the performance model (builder-style).
    pub fn with_perf(mut self, perf: PerfModel) -> Self {
        self.perf = perf;
        self
    }

    /// Serial-section time at `threads` merging threads, normalised to the
    /// single-core serial-section time (the quantity plotted in Figure 2(b)).
    pub fn serial_multiplier(&self, threads: f64) -> f64 {
        let split = self.params.split;
        split.fcon + split.fred * (1.0 + self.params.fored * self.growth.eval(threads))
    }

    /// Effective serial fraction (of total single-core time) at `threads`
    /// merging threads: `s · serial_multiplier(threads)`.
    pub fn effective_serial_fraction(&self, threads: f64) -> f64 {
        self.params.serial_fraction() * self.serial_multiplier(threads)
    }

    /// Speedup of a symmetric CMP (paper Eq. 4).
    ///
    /// The serial section (including the grown reduction) runs on one core of
    /// `r` BCE at `perf(r)`; the parallel section runs on all `n/r` cores.
    ///
    /// # Errors
    /// Propagates performance-model validation errors.
    pub fn speedup_symmetric(&self, design: &SymmetricDesign) -> Result<f64, ModelError> {
        let r = design.r();
        let n = design.budget().total_bce();
        let perf_r = self.perf.perf(r)?;
        let threads = design.threads();
        // Single-divide form of `1 / (eff/perf_r + f·r/(perf_r·n))`
        // (multiply through by `perf_r·n`): algebraically identical, one
        // IEEE division instead of three. This is the evaluation hot path's
        // arithmetic — [`PreparedModel`] replicates this exact operation
        // order and is compared against it bit for bit, so any change here
        // must be made there too (and the golden curves regenerated).
        //
        // [`PreparedModel`]: crate::prepared::PreparedModel
        let eff = self.effective_serial_fraction(threads);
        check_finite("extended symmetric speedup", (perf_r * n) / (eff * n + self.params.f * r))
    }

    /// Speedup of an asymmetric CMP (paper Eq. 5).
    ///
    /// The serial section (including the grown reduction) runs on the large
    /// core of `rl` BCE; the parallel section is executed by the small cores
    /// plus the large core (`perf(r)·(n-rl)/r + perf(rl)`). The number of
    /// merging threads is the total number of cores.
    ///
    /// # Errors
    /// Propagates performance-model validation errors.
    pub fn speedup_asymmetric(&self, design: &AsymmetricDesign) -> Result<f64, ModelError> {
        let perf_l = self.perf.perf(design.rl())?;
        let perf_r = self.perf.perf(design.r())?;
        let threads = design.threads();
        // Single-divide form of `1 / (eff/perf_l + f/pt)` (multiply through
        // by `perf_l·pt`); `PreparedModel` replicates the operation order.
        let eff = self.effective_serial_fraction(threads);
        let parallel_throughput = perf_r * design.small_cores() + perf_l;
        check_finite(
            "extended asymmetric speedup",
            (perf_l * parallel_throughput) / (eff * parallel_throughput + self.params.f * perf_l),
        )
    }

    /// Speedup on `p` identical unit cores (the Figure 3 setting: the baseline
    /// core of Table I with performance 1, scaled out to `p` cores).
    ///
    /// This is Eq. 4 with `r = 1`, `n = p`.
    ///
    /// # Errors
    /// Returns an error if `p` is not strictly positive.
    pub fn speedup_unit_cores(&self, p: f64) -> Result<f64, ModelError> {
        if !(p.is_finite() && p > 0.0) {
            return Err(ModelError::NonPositive { name: "p", value: p });
        }
        // Single-divide form of `1 / (eff + f/p)` (multiply through by `p`).
        let eff = self.effective_serial_fraction(p);
        check_finite("extended unit-core speedup", p / (eff * p + self.params.f))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chip::ChipBudget;
    use crate::hill_marty;
    use crate::params::AppClass;

    fn budget() -> ChipBudget {
        ChipBudget::paper_default()
    }

    fn class(emb: bool, high_con: bool, high_ovh: bool) -> AppParams {
        AppClass {
            embarrassingly_parallel: emb,
            high_constant: high_con,
            high_reduction_overhead: high_ovh,
        }
        .params()
    }

    fn model(params: AppParams, growth: GrowthFunction) -> ExtendedModel {
        ExtendedModel::new(params, growth, PerfModel::Pollack)
    }

    #[test]
    fn single_thread_multiplier_is_one() {
        for p in AppParams::table2_all() {
            let m = model(p, GrowthFunction::Linear);
            assert!((m.serial_multiplier(1.0) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn multiplier_matches_table2_hand_computation() {
        // kmeans at 16 threads: 0.57 + 0.43·(1 + 0.72·15) = 5.644
        let m = model(AppParams::table2_kmeans(), GrowthFunction::Linear);
        assert!((m.serial_multiplier(16.0) - 5.644).abs() < 1e-4);
    }

    #[test]
    fn zero_overhead_reduces_to_hill_marty() {
        let params = AppParams::new("no-ovh", 0.99, 0.6, 0.0, 0.0).unwrap();
        let m = model(params.clone(), GrowthFunction::Linear);
        for r in [1.0, 4.0, 32.0] {
            let d = SymmetricDesign::new(budget(), r).unwrap();
            let ext = m.speedup_symmetric(&d).unwrap();
            let hm = hill_marty::symmetric_speedup(0.99, &d, &PerfModel::Pollack).unwrap();
            assert!((ext - hm).abs() < 1e-9, "r={r}");
        }
    }

    #[test]
    fn constant_growth_reduces_to_hill_marty() {
        let m = model(AppParams::table2_kmeans(), GrowthFunction::Constant);
        let d = SymmetricDesign::new(budget(), 1.0).unwrap();
        let ext = m.speedup_symmetric(&d).unwrap();
        let hm = hill_marty::symmetric_speedup(0.99985, &d, &PerfModel::Pollack).unwrap();
        assert!((ext - hm).abs() < 1e-9);
    }

    #[test]
    fn figure4c_peak_matches_paper() {
        // Fig. 4(c): f = 0.999, moderate constant, low overhead, Linear.
        // Paper: maximum speedup 104.5 at r = 4.
        let m = model(class(true, false, false), GrowthFunction::Linear);
        let d = SymmetricDesign::new(budget(), 4.0).unwrap();
        let s = m.speedup_symmetric(&d).unwrap();
        assert!((s - 104.5).abs() < 1.0, "got {s}");

        // And r = 4 is the best power-of-two choice.
        let best = budget()
            .power_of_two_core_sizes()
            .into_iter()
            .max_by(|&a, &b| {
                let sa = m.speedup_symmetric(&SymmetricDesign::new(budget(), a).unwrap()).unwrap();
                let sb = m.speedup_symmetric(&SymmetricDesign::new(budget(), b).unwrap()).unwrap();
                sa.partial_cmp(&sb).unwrap()
            })
            .unwrap();
        assert_eq!(best, 4.0);
    }

    #[test]
    fn figure4d_peak_matches_paper() {
        // Fig. 4(d): f = 0.999, moderate constant, high overhead, Linear.
        // Paper: maximum speedup 67.1 at r = 8.
        let m = model(class(true, false, true), GrowthFunction::Linear);
        let d = SymmetricDesign::new(budget(), 8.0).unwrap();
        let s = m.speedup_symmetric(&d).unwrap();
        assert!((s - 67.1).abs() < 1.0, "got {s}");
    }

    #[test]
    fn figure4d_nonemb_linear_peak_matches_paper() {
        // Fig. 4(d), f = 0.99 Linear: maximum speedup 36.2 at r = 32.
        let m = model(class(false, false, true), GrowthFunction::Linear);
        let d = SymmetricDesign::new(budget(), 32.0).unwrap();
        let s = m.speedup_symmetric(&d).unwrap();
        assert!((s - 36.2).abs() < 1.0, "got {s}");
    }

    #[test]
    fn figure4b_peak_matches_paper() {
        // Fig. 4(b): f = 0.99, high constant, high overhead, Linear → 47.6.
        let m = model(class(false, true, true), GrowthFunction::Linear);
        let best = budget()
            .power_of_two_core_sizes()
            .into_iter()
            .map(|r| m.speedup_symmetric(&SymmetricDesign::new(budget(), r).unwrap()).unwrap())
            .fold(f64::MIN, f64::max);
        assert!((best - 47.6).abs() < 1.0, "got {best}");
    }

    #[test]
    fn figure5h_r4_peak_matches_paper() {
        // Fig. 5(h): f = 0.99, moderate constant, high overhead, r = 4 → 43.3.
        let m = model(class(false, false, true), GrowthFunction::Linear);
        let best = budget()
            .power_of_two_core_sizes()
            .into_iter()
            .filter(|&rl| (4.0..256.0).contains(&rl))
            .map(|rl| {
                m.speedup_asymmetric(&AsymmetricDesign::new(budget(), 4.0, rl).unwrap()).unwrap()
            })
            .fold(f64::MIN, f64::max);
        assert!((best - 43.3).abs() < 1.0, "got {best}");
    }

    #[test]
    fn figure5h_r1_peak_matches_paper() {
        // Fig. 5(h): r = 1 small cores → peak 22.6 (worse than symmetric 36.2).
        let m = model(class(false, false, true), GrowthFunction::Linear);
        let best = budget()
            .power_of_two_core_sizes()
            .into_iter()
            .filter(|&rl| rl < 256.0)
            .map(|rl| {
                m.speedup_asymmetric(&AsymmetricDesign::new(budget(), 1.0, rl).unwrap()).unwrap()
            })
            .fold(f64::MIN, f64::max);
        assert!((best - 22.6).abs() < 1.0, "got {best}");
    }

    #[test]
    fn figure5d_r4_peak_matches_paper() {
        // Fig. 5(d): f = 0.99, high constant, high overhead → ACMP best 64.2.
        let m = model(class(false, true, true), GrowthFunction::Linear);
        let best = budget()
            .power_of_two_core_sizes()
            .into_iter()
            .filter(|&rl| (4.0..256.0).contains(&rl))
            .map(|rl| {
                m.speedup_asymmetric(&AsymmetricDesign::new(budget(), 4.0, rl).unwrap()).unwrap()
            })
            .fold(f64::MIN, f64::max);
        assert!((best - 64.2).abs() < 1.5, "got {best}");
    }

    #[test]
    fn high_overhead_shifts_optimum_to_larger_cores() {
        // Paper Section V-D-1: moving from low to high reduction overhead moves
        // the symmetric optimum to larger r and lowers the peak.
        let perf = PerfModel::Pollack;
        let best = |params: AppParams| -> (f64, f64) {
            let m = ExtendedModel::new(params, GrowthFunction::Linear, perf);
            budget()
                .power_of_two_core_sizes()
                .into_iter()
                .map(|r| {
                    (r, m.speedup_symmetric(&SymmetricDesign::new(budget(), r).unwrap()).unwrap())
                })
                .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
                .unwrap()
        };
        let (r_low, s_low) = best(class(true, false, false));
        let (r_high, s_high) = best(class(true, false, true));
        assert!(r_high > r_low);
        assert!(s_high < s_low);
    }

    #[test]
    fn log_growth_keeps_small_cores_for_embarrassingly_parallel() {
        // Paper Section V-D-1: with logarithmic growth, embarrassingly parallel
        // applications still prefer small cores.
        let m = model(class(true, true, false), GrowthFunction::Logarithmic);
        let best_r = budget()
            .power_of_two_core_sizes()
            .into_iter()
            .max_by(|&a, &b| {
                let sa = m.speedup_symmetric(&SymmetricDesign::new(budget(), a).unwrap()).unwrap();
                let sb = m.speedup_symmetric(&SymmetricDesign::new(budget(), b).unwrap()).unwrap();
                sa.partial_cmp(&sb).unwrap()
            })
            .unwrap();
        assert_eq!(best_r, 1.0);
    }

    #[test]
    fn extended_never_exceeds_hill_marty() {
        for params in AppParams::table2_all() {
            let f = params.f;
            let m = model(params, GrowthFunction::Linear);
            for r in budget().power_of_two_core_sizes() {
                let d = SymmetricDesign::new(budget(), r).unwrap();
                let ext = m.speedup_symmetric(&d).unwrap();
                let hm = hill_marty::symmetric_speedup(f, &d, &PerfModel::Pollack).unwrap();
                assert!(ext <= hm + 1e-9, "r={r}");
            }
        }
    }

    #[test]
    fn unit_core_speedup_tapers_under_linear_growth() {
        // Figure 3's qualitative shape: the extended model peaks well below the
        // Amdahl curve at 256 cores.
        let m = model(AppParams::table2_kmeans(), GrowthFunction::Linear);
        let ext256 = m.speedup_unit_cores(256.0).unwrap();
        let amdahl256 = crate::amdahl::amdahl_speedup(0.99985, 256.0).unwrap();
        assert!(ext256 < amdahl256);
        // And speedup is no longer monotone: somewhere before 256 cores there is
        // a peak higher than the 256-core value, or at least the growth has
        // flattened dramatically relative to Amdahl.
        let peak =
            (1..=256).map(|p| m.speedup_unit_cores(p as f64).unwrap()).fold(f64::MIN, f64::max);
        assert!(peak >= ext256);
        assert!(amdahl256 / ext256 > 1.2);
    }

    #[test]
    fn invalid_unit_core_count_rejected() {
        let m = model(AppParams::table2_kmeans(), GrowthFunction::Linear);
        assert!(m.speedup_unit_cores(0.0).is_err());
        assert!(m.speedup_unit_cores(-3.0).is_err());
    }

    #[test]
    fn builder_methods_replace_components() {
        let m = model(AppParams::table2_kmeans(), GrowthFunction::Linear)
            .with_growth(GrowthFunction::Logarithmic)
            .with_perf(PerfModel::Linear);
        assert_eq!(m.growth(), &GrowthFunction::Logarithmic);
        assert_eq!(m.perf(), &PerfModel::Linear);
    }
}
