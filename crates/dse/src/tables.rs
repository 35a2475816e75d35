//! Columnar (structure-of-arrays) precomputation over a [`ScenarioSpace`].
//!
//! The sweep's index order puts the design axis innermost, so every
//! contiguous batch walks the design list under fixed shared axes. Everything
//! about a design that does not depend on the application — its geometry
//! under each budget, its core performance under each perf model, its growth
//! samples under each (growth, budget) pair — can therefore be computed
//! *once per sweep* instead of once per scenario. [`SpaceTables`] holds those
//! columns; the backends' prepared batch paths stream through them with plain
//! slice indexing and no allocation.
//!
//! Every column is filled with exactly the arithmetic the per-scenario path
//! performs ([`ChipSpec::cores`], [`PerfModel::perf`],
//! [`GrowthFunction::eval`] at the design's thread count), so results read
//! from the tables are bit-identical to results derived on the fly.
//!
//! [`GrowthFunction::eval`]: mp_model::growth::GrowthFunction::eval
//!
//! Sizes are tiny: the columns scale with the *axis lengths*
//! (`designs · budgets · (1 + growths)` plus `designs · perfs` entries), not
//! with the product that is the scenario count — the 214k-scenario `repro
//! dse` space needs a few dozen kilobytes of tables.

use mp_model::chip::ChipBudget;
use mp_model::perf::PerfModel;

use crate::scenario::{ChipSpec, ScenarioSpace};

/// A maximal run of consecutive designs of one organisation. The batch
/// kernels evaluate homogeneous segments: symmetric and asymmetric designs
/// use different speedup formulas (Eq. 4 vs Eq. 5), so mixed design lists
/// split at every organisation boundary.
#[derive(Debug, Clone, Copy)]
pub struct DesignSegment {
    /// First design index of the segment.
    pub start: usize,
    /// Number of designs in the segment.
    pub len: usize,
    /// Whether the segment's designs are asymmetric.
    pub asym: bool,
}

/// Structure-of-arrays precomputation shared by every batch of one sweep.
#[derive(Debug)]
pub struct SpaceTables {
    designs: usize,
    /// Swept-axis area per design ([`ChipSpec::area`]).
    area: Vec<f64>,
    /// Per-design small/symmetric core area `r`.
    design_r: Vec<f64>,
    /// `[budget][design]` fit masks ([`ChipSpec::fits`]): all-ones bits where
    /// the design fits the budget, zero where it does not; the other
    /// geometry columns are meaningful only where it fits. A full-width mask
    /// and not a `bool` because the compiler folds a 64-bit compare into the
    /// batch kernel's finite-or-`NaN` select, while widening bytes to vector
    /// lanes costs a second select and 10–20 % of that loop (measured, PR 17).
    fits_bits: Vec<u64>,
    /// `[budget][design]` core count (== merging-thread count for both
    /// organisations).
    cores: Vec<f64>,
    /// `[budget][design]` small-core count of an asymmetric design (`0.0`
    /// for symmetric ones).
    small_cores: Vec<f64>,
    /// `[perf][design]` performance of the small/symmetric core,
    /// `perf(r)`; `NaN` where the perf model rejects the area.
    perf_small: Vec<f64>,
    /// `[perf][design]` performance of the large core, `perf(rl)` (equals
    /// `perf_small` entries for symmetric designs, unused there).
    perf_large: Vec<f64>,
    /// `[growth][budget][design]` growth samples at the design's thread
    /// count.
    growth: Vec<f64>,
    /// Maximal homogeneous organisation runs over the design axis.
    segments: Vec<DesignSegment>,
}

impl SpaceTables {
    /// Precompute every design-axis column of `space`.
    pub fn new(space: &ScenarioSpace) -> Self {
        let designs = space.designs();
        let d = designs.len();

        let area: Vec<f64> = designs.iter().map(|spec| spec.area()).collect();

        let per_budget = space.budgets().len() * d;
        let mut fits_bits = Vec::with_capacity(per_budget);
        let mut cores = Vec::with_capacity(per_budget);
        let mut small_cores = Vec::with_capacity(per_budget);
        for &budget_bce in space.budgets() {
            let budget = ChipBudget::new(budget_bce);
            for spec in designs {
                fits_bits.push(if spec.fits(budget) { u64::MAX } else { 0 });
                cores.push(spec.cores(budget));
                small_cores.push(match spec {
                    ChipSpec::Symmetric { .. } => 0.0,
                    ChipSpec::Asymmetric { r, rl } => ((budget.total_bce() - rl) / r).max(0.0),
                });
            }
        }

        let perf_or_nan = |perf: &PerfModel, r: f64| perf.perf(r).unwrap_or(f64::NAN);
        let mut perf_small = Vec::with_capacity(space.perfs().len() * d);
        let mut perf_large = Vec::with_capacity(space.perfs().len() * d);
        for perf in space.perfs() {
            for spec in designs {
                match *spec {
                    ChipSpec::Symmetric { r } => {
                        let p = perf_or_nan(perf, r);
                        perf_small.push(p);
                        perf_large.push(p);
                    }
                    ChipSpec::Asymmetric { r, rl } => {
                        perf_small.push(perf_or_nan(perf, r));
                        perf_large.push(perf_or_nan(perf, rl));
                    }
                }
            }
        }

        // Growth samples are taken at the same thread counts the analytic
        // designs report: `SymmetricDesign::threads() == cores` and
        // `AsymmetricDesign::threads() == small_cores + 1 == cores`.
        let mut growth = Vec::with_capacity(space.growths().len() * cores.len());
        for g in space.growths() {
            for &threads in &cores {
                growth.push(g.eval(threads));
            }
        }

        let mut design_r = Vec::with_capacity(d);
        let mut segments: Vec<DesignSegment> = Vec::new();
        for (i, spec) in designs.iter().enumerate() {
            let (r, asym) = match *spec {
                ChipSpec::Symmetric { r } => (r, false),
                ChipSpec::Asymmetric { r, .. } => (r, true),
            };
            design_r.push(r);
            match segments.last_mut() {
                Some(seg) if seg.asym == asym => seg.len += 1,
                _ => segments.push(DesignSegment { start: i, len: 1, asym }),
            }
        }

        SpaceTables {
            designs: d,
            area,
            design_r,
            fits_bits,
            cores,
            small_cores,
            perf_small,
            perf_large,
            growth,
            segments,
        }
    }

    /// Number of designs each column run covers.
    pub fn designs(&self) -> usize {
        self.designs
    }

    /// Per-design swept areas.
    pub fn area(&self) -> &[f64] {
        &self.area
    }

    /// Per-design small/symmetric core areas `r`.
    pub fn design_r(&self) -> &[f64] {
        &self.design_r
    }

    /// The fit-mask run of one budget-axis index: all-ones where the design
    /// fits, zero where it does not.
    pub fn fits_bits(&self, budget_index: usize) -> &[u64] {
        let start = budget_index * self.designs;
        &self.fits_bits[start..start + self.designs]
    }

    /// The core-count run of one budget-axis index.
    pub fn cores(&self, budget_index: usize) -> &[f64] {
        let start = budget_index * self.designs;
        &self.cores[start..start + self.designs]
    }

    /// The small-core-count run of one budget-axis index.
    pub fn small_cores(&self, budget_index: usize) -> &[f64] {
        let start = budget_index * self.designs;
        &self.small_cores[start..start + self.designs]
    }

    /// The small/symmetric-core performance run of one perf-axis index.
    pub fn perf_small(&self, perf_index: usize) -> &[f64] {
        let start = perf_index * self.designs;
        &self.perf_small[start..start + self.designs]
    }

    /// The large-core performance run of one perf-axis index.
    pub fn perf_large(&self, perf_index: usize) -> &[f64] {
        let start = perf_index * self.designs;
        &self.perf_large[start..start + self.designs]
    }

    /// The growth-sample run of one (growth, budget) axis-index pair.
    pub fn growth(&self, growth_index: usize, budget_index: usize) -> &[f64] {
        let budgets = self.cores.len() / self.designs.max(1);
        let start = (growth_index * budgets + budget_index) * self.designs;
        &self.growth[start..start + self.designs]
    }

    /// Maximal homogeneous organisation runs over the design axis.
    pub fn segments(&self) -> &[DesignSegment] {
        &self.segments
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mp_model::growth::GrowthFunction;
    use mp_model::params::AppParams;

    fn space() -> ScenarioSpace {
        ScenarioSpace::new()
            .with_apps(vec![AppParams::table2_kmeans()])
            .with_budgets(vec![64.0, 256.0])
            .with_growths(vec![GrowthFunction::Linear, GrowthFunction::Logarithmic])
            .with_perfs(vec![PerfModel::Pollack, PerfModel::Linear])
            .clear_designs()
            .add_symmetric_grid([1.0, 4.0, 100.0])
            .add_asymmetric_grid([1.0, 2.0], [4.0, 64.0])
    }

    #[test]
    fn columns_match_the_per_scenario_derivations_bitwise() {
        let space = space();
        let tables = SpaceTables::new(&space);
        for index in 0..space.len() {
            let ix = space.decode(index);
            let scenario = space.scenario(index);
            let mask = if scenario.design.fits(scenario.budget) { u64::MAX } else { 0 };
            assert_eq!(tables.fits_bits(ix.budget)[ix.design], mask, "index {index}");
            assert_eq!(
                tables.cores(ix.budget)[ix.design].to_bits(),
                scenario.cores().to_bits(),
                "index {index}"
            );
            assert_eq!(
                tables.area()[ix.design].to_bits(),
                scenario.area().to_bits(),
                "index {index}"
            );
            let sample = tables.growth(ix.growth, ix.budget)[ix.design];
            assert_eq!(
                sample.to_bits(),
                scenario.growth.eval(scenario.cores()).to_bits(),
                "index {index}"
            );
            match scenario.design {
                ChipSpec::Symmetric { r } => {
                    let expect = scenario.perf.perf(r).unwrap_or(f64::NAN);
                    assert_eq!(
                        tables.perf_small(ix.perf)[ix.design].to_bits(),
                        expect.to_bits(),
                        "index {index}"
                    );
                    assert_eq!(tables.design_r()[ix.design].to_bits(), r.to_bits());
                    assert_eq!(tables.small_cores(ix.budget)[ix.design].to_bits(), 0);
                }
                ChipSpec::Asymmetric { r, rl } => {
                    let small = scenario.perf.perf(r).unwrap_or(f64::NAN);
                    let large = scenario.perf.perf(rl).unwrap_or(f64::NAN);
                    assert_eq!(tables.perf_small(ix.perf)[ix.design].to_bits(), small.to_bits());
                    assert_eq!(tables.perf_large(ix.perf)[ix.design].to_bits(), large.to_bits());
                    // small_cores must reproduce AsymmetricDesign::small_cores.
                    let expect = ((scenario.budget.total_bce() - rl) / r).max(0.0);
                    assert_eq!(
                        tables.small_cores(ix.budget)[ix.design].to_bits(),
                        expect.to_bits()
                    );
                    assert_eq!(tables.design_r()[ix.design].to_bits(), r.to_bits());
                }
            }
        }
    }

    #[test]
    fn runs_have_one_entry_per_design() {
        let space = space();
        let tables = SpaceTables::new(&space);
        assert_eq!(tables.designs(), space.designs().len());
        for b in 0..space.budgets().len() {
            assert_eq!(tables.fits_bits(b).len(), tables.designs());
            assert_eq!(tables.cores(b).len(), tables.designs());
            assert_eq!(tables.small_cores(b).len(), tables.designs());
            for g in 0..space.growths().len() {
                assert_eq!(tables.growth(g, b).len(), tables.designs());
            }
        }
        for p in 0..space.perfs().len() {
            assert_eq!(tables.perf_small(p).len(), tables.designs());
        }
    }
}
