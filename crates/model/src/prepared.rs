//! Precomputed, borrow-only evaluation of the extended model.
//!
//! [`ExtendedModel`] owns its [`AppParams`] and [`GrowthFunction`], which is
//! the right shape for long-lived models but forces every design-space batch
//! to clone an application name `String` (and, for measured curves, a sample
//! `Vec`) before it can evaluate a single design. [`PreparedModel`] is the
//! hot-path counterpart: it borrows the application and growth function,
//! hoists every design-independent scalar (`f`, `s`, `fcon`, `fred`,
//! `fored`) out of the inner loop once, and reports invalid inputs as `NaN`
//! instead of a `Result`, so the per-design evaluation is a short, branch-light
//! arithmetic kernel with no heap traffic at all.
//!
//! **Bit parity is a hard contract**: for every design, valid or not,
//! [`PreparedModel::speedup_symmetric`] / [`PreparedModel::speedup_asymmetric`]
//! produce exactly the bits the `ExtendedModel` +
//! [`SymmetricDesign`] / [`AsymmetricDesign`] path produces (`NaN` where that
//! path errors). The arithmetic below therefore replicates the owned path's
//! operations and association order verbatim — do not "simplify" expressions
//! here without re-running the bitwise parity tests.
//!
//! [`ExtendedModel`]: crate::extended::ExtendedModel
//! [`SymmetricDesign`]: crate::chip::SymmetricDesign
//! [`AsymmetricDesign`]: crate::chip::AsymmetricDesign

use crate::growth::GrowthFunction;
use crate::params::AppParams;
use crate::perf::PerfModel;

/// Design-independent state of one `(application, growth, perf)` combination,
/// borrowed from its owners. Build once per shared-axis run, evaluate many
/// designs.
#[derive(Debug, Clone, Copy)]
pub struct PreparedModel<'a> {
    /// Parallel fraction `f`.
    f: f64,
    /// Serial fraction `s = 1 - f`.
    s: f64,
    /// Constant fraction of the serial time.
    fcon: f64,
    /// Reduction fraction of the serial time.
    fred: f64,
    /// Reduction-overhead coefficient.
    fored: f64,
    growth: &'a GrowthFunction,
    perf: PerfModel,
}

impl<'a> PreparedModel<'a> {
    /// Prepare `(app, growth, perf)` for repeated per-design evaluation.
    pub fn new(app: &'a AppParams, growth: &'a GrowthFunction, perf: PerfModel) -> Self {
        PreparedModel {
            f: app.f,
            s: app.serial_fraction(),
            fcon: app.split.fcon,
            fred: app.split.fred,
            fored: app.fored,
            growth,
            perf,
        }
    }

    /// The growth function the model was prepared over.
    pub fn growth(&self) -> &'a GrowthFunction {
        self.growth
    }

    /// The performance model.
    pub fn perf(&self) -> PerfModel {
        self.perf
    }

    /// `perf(r)` with invalid inputs (and invalid outputs, e.g. a logarithmic
    /// model gone non-positive) collapsed to `NaN` — exactly the cases where
    /// [`PerfModel::perf`] errors.
    pub fn perf_or_nan(&self, r: f64) -> f64 {
        self.perf.perf(r).unwrap_or(f64::NAN)
    }

    /// Growth sample at `threads` merging threads.
    pub fn growth_sample(&self, threads: f64) -> f64 {
        self.growth.eval(threads)
    }

    /// Serial-section multiplier at `threads`, from a precomputed growth
    /// sample. Same expression as [`ExtendedModel::serial_multiplier`].
    ///
    /// [`ExtendedModel::serial_multiplier`]: crate::extended::ExtendedModel::serial_multiplier
    #[inline]
    pub fn serial_multiplier_from_sample(&self, growth_sample: f64) -> f64 {
        self.fcon + self.fred * (1.0 + self.fored * growth_sample)
    }

    /// Effective serial fraction from a precomputed growth sample,
    /// `s · serial_multiplier`.
    #[inline]
    pub fn effective_serial_fraction_from_sample(&self, growth_sample: f64) -> f64 {
        self.s * self.serial_multiplier_from_sample(growth_sample)
    }

    /// Symmetric speedup (paper Eq. 4) from fully precomputed parts:
    /// `threads = n / r`, `perf_r = perf(r)` (NaN when invalid) and
    /// `growth_sample = grow(threads)`.
    ///
    /// Straight-line arithmetic and one select, `#[inline]`: mp-dse's batch
    /// loop calls this once per element and the compiler vectorises the loop
    /// around it.
    #[inline]
    pub fn speedup_symmetric_from_parts(
        &self,
        total_bce: f64,
        r: f64,
        perf_r: f64,
        growth_sample: f64,
    ) -> f64 {
        // Single-divide form of Eq. 4, replicating
        // `ExtendedModel::speedup_symmetric` verbatim: numerator
        // `perf_r · n`, denominator `eff·n + f·r`, one IEEE division.
        let eff = self.effective_serial_fraction_from_sample(growth_sample);
        let speedup = (perf_r * total_bce) / (eff * total_bce + self.f * r);
        if speedup.is_finite() {
            speedup
        } else {
            f64::NAN
        }
    }

    /// Asymmetric speedup (paper Eq. 5) from precomputed parts:
    /// `small_cores = ((n - rl) / r).max(0)`, `perf_r = perf(r)`,
    /// `perf_l = perf(rl)` (NaN when invalid) and the growth sample at
    /// `small_cores + 1` threads. Vectorised by the same batch loop as
    /// [`PreparedModel::speedup_symmetric_from_parts`].
    #[inline]
    pub fn speedup_asymmetric_from_parts(
        &self,
        small_cores: f64,
        perf_r: f64,
        perf_l: f64,
        growth_sample: f64,
    ) -> f64 {
        // Single-divide form of Eq. 5, replicating
        // `ExtendedModel::speedup_asymmetric` verbatim.
        let eff = self.effective_serial_fraction_from_sample(growth_sample);
        let parallel_throughput = perf_r * small_cores + perf_l;
        let speedup =
            (perf_l * parallel_throughput) / (eff * parallel_throughput + self.f * perf_l);
        if speedup.is_finite() {
            speedup
        } else {
            f64::NAN
        }
    }

    /// Symmetric speedup of `r`-BCE cores under a `total_bce` budget, deriving
    /// every part on the spot. `NaN` wherever the owned
    /// `ExtendedModel::speedup_symmetric` path returns an error (non-positive
    /// or over-budget `r`, invalid perf, non-finite result).
    pub fn speedup_symmetric(&self, total_bce: f64, r: f64) -> f64 {
        if !(r.is_finite() && r > 0.0) || r > total_bce {
            return f64::NAN;
        }
        let threads = total_bce / r;
        self.speedup_symmetric_from_parts(
            total_bce,
            r,
            self.perf_or_nan(r),
            self.growth.eval(threads),
        )
    }

    /// Asymmetric speedup of one `rl`-BCE core plus `r`-BCE cores under a
    /// `total_bce` budget. `NaN` wherever the owned
    /// `ExtendedModel::speedup_asymmetric` path returns an error (geometry
    /// that `AsymmetricDesign::new` rejects, invalid perf, non-finite result).
    pub fn speedup_asymmetric(&self, total_bce: f64, r: f64, rl: f64) -> f64 {
        if !(r.is_finite() && r > 0.0 && rl.is_finite() && rl > 0.0) || rl > total_bce {
            return f64::NAN;
        }
        if rl + r > total_bce && (rl - total_bce).abs() > f64::EPSILON {
            return f64::NAN;
        }
        if rl < r {
            return f64::NAN;
        }
        let small_cores = ((total_bce - rl) / r).max(0.0);
        let threads = small_cores + 1.0;
        self.speedup_asymmetric_from_parts(
            small_cores,
            self.perf_or_nan(r),
            self.perf_or_nan(rl),
            self.growth.eval(threads),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chip::{AsymmetricDesign, ChipBudget, SymmetricDesign};
    use crate::extended::ExtendedModel;

    fn owned_symmetric(model: &ExtendedModel, n: f64, r: f64) -> f64 {
        SymmetricDesign::new(ChipBudget::new(n), r)
            .ok()
            .and_then(|d| model.speedup_symmetric(&d).ok())
            .unwrap_or(f64::NAN)
    }

    fn owned_asymmetric(model: &ExtendedModel, n: f64, r: f64, rl: f64) -> f64 {
        AsymmetricDesign::new(ChipBudget::new(n), r, rl)
            .ok()
            .and_then(|d| model.speedup_asymmetric(&d).ok())
            .unwrap_or(f64::NAN)
    }

    fn growth_catalogue() -> Vec<GrowthFunction> {
        vec![
            GrowthFunction::Constant,
            GrowthFunction::Linear,
            GrowthFunction::Logarithmic,
            GrowthFunction::Superlinear(1.55),
            GrowthFunction::Measured(vec![(1.0, 0.0), (4.0, 2.5), (16.0, 30.0)]),
        ]
    }

    #[test]
    fn symmetric_matches_owned_model_bitwise() {
        for app in AppParams::table2_all() {
            for growth in growth_catalogue() {
                for perf in [PerfModel::Pollack, PerfModel::Power(0.75), PerfModel::Linear] {
                    let owned = ExtendedModel::new(app.clone(), growth.clone(), perf);
                    let prepared = PreparedModel::new(&app, &growth, perf);
                    for n in [64.0, 256.0] {
                        for r in [0.5, 1.0, 3.7, 16.0, 255.0, 256.0, 300.0] {
                            let a = owned_symmetric(&owned, n, r);
                            let b = prepared.speedup_symmetric(n, r);
                            assert_eq!(
                                a.to_bits(),
                                b.to_bits(),
                                "{} {growth:?} {perf:?} n={n} r={r}: {a} vs {b}",
                                app.name
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn asymmetric_matches_owned_model_bitwise() {
        let app = AppParams::table2_hop();
        for growth in growth_catalogue() {
            let owned = ExtendedModel::new(app.clone(), growth.clone(), PerfModel::Pollack);
            let prepared = PreparedModel::new(&app, &growth, PerfModel::Pollack);
            for (r, rl) in [
                (1.0, 4.0),
                (4.0, 64.0),
                (1.0, 256.0),
                (1.0, 255.5), // no room for a small core → error/NaN
                (16.0, 4.0),  // large smaller than small → error/NaN
                (1.0, 300.0), // over budget → error/NaN
                (2.5, 17.3),
            ] {
                let a = owned_asymmetric(&owned, 256.0, r, rl);
                let b = prepared.speedup_asymmetric(256.0, r, rl);
                assert_eq!(a.to_bits(), b.to_bits(), "{growth:?} r={r} rl={rl}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn invalid_perf_collapses_to_nan_like_the_owned_path() {
        // A logarithmic perf model that goes non-positive for small r: the
        // owned path errors, the prepared path must produce NaN.
        let app = AppParams::table2_kmeans();
        let growth = GrowthFunction::Linear;
        let perf = PerfModel::Logarithmic(-2.0);
        let owned = ExtendedModel::new(app.clone(), growth.clone(), perf);
        let prepared = PreparedModel::new(&app, &growth, perf);
        for r in [1.5, 2.0, 4.0] {
            let a = owned_symmetric(&owned, 256.0, r);
            let b = prepared.speedup_symmetric(256.0, r);
            assert_eq!(a.to_bits(), b.to_bits(), "r={r}");
        }
    }

    #[test]
    fn parts_path_agrees_with_direct_path() {
        let app = AppParams::table2_fuzzy();
        let growth = GrowthFunction::Superlinear(1.3);
        let prepared = PreparedModel::new(&app, &growth, PerfModel::Pollack);
        let n = 256.0;
        for r in [1.0, 4.0, 37.0] {
            let threads = n / r;
            let via_parts = prepared.speedup_symmetric_from_parts(
                n,
                r,
                prepared.perf_or_nan(r),
                prepared.growth_sample(threads),
            );
            assert_eq!(via_parts.to_bits(), prepared.speedup_symmetric(n, r).to_bits());
        }
    }
}
