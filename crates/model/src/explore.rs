//! The paper's design-space sweeps and figure curve families.
//!
//! The paper's Figures 3, 4, 5 and 7 are all sweeps over chip designs for a
//! fixed application parameter set: unit-core counts `p` (Figure 3),
//! per-core area `r` for symmetric CMPs (Figures 4 and 7(a)) and large-core
//! area `rl` at a fixed small-core area `r` for asymmetric CMPs (Figures 5
//! and 7(b)). The loops here produce those curves and locate their optima,
//! for both the extended and the communication-aware model.
//!
//! [`figure_curves`] is the one construction of each figure's full curve
//! family: which applications, classes, growth laws and small-core areas a
//! figure draws. The `repro` figure tables, the golden-file snapshots under
//! `tests/golden/` and the sweep service's `curve` verb all call it, so the
//! printed tables, the snapshots and the served curves are the same bits.
//! The `mp-dse` engine evaluates the same models in batches; its parity
//! tests compare against these loops.

use serde::{Deserialize, Serialize};

use crate::chip::{AsymmetricDesign, ChipBudget, SymmetricDesign};
use crate::comm::CommModel;
use crate::error::ModelError;
use crate::extended::ExtendedModel;
use crate::growth::GrowthFunction;
use crate::params::{AppClass, AppParams};
use crate::perf::PerfModel;

/// One evaluated point of a design-space sweep.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DesignPoint {
    /// Area of the swept core in BCE (`r` for symmetric sweeps, `rl` for
    /// asymmetric sweeps).
    pub area: f64,
    /// Number of cores of the resulting design.
    pub cores: f64,
    /// Predicted speedup relative to one base core.
    pub speedup: f64,
}

/// A labelled speedup curve (one line of a paper figure).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Curve {
    /// Legend label, e.g. `"0.999-Linear"` or `"r = 4"`.
    pub label: String,
    /// The swept points in increasing area order.
    pub points: Vec<DesignPoint>,
}

impl Curve {
    /// The point with the highest speedup (ties resolved toward smaller area).
    pub fn peak(&self) -> Option<DesignPoint> {
        self.points.iter().copied().max_by(|a, b| {
            match a.speedup.partial_cmp(&b.speedup).unwrap() {
                std::cmp::Ordering::Equal => b.area.partial_cmp(&a.area).unwrap(),
                other => other,
            }
        })
    }
}

/// Sweep a symmetric CMP over the power-of-two per-core areas of the budget
/// using the extended model (one line of Figure 4).
pub fn symmetric_curve(
    model: &ExtendedModel,
    budget: ChipBudget,
    label: impl Into<String>,
) -> Result<Curve, ModelError> {
    let mut points = Vec::new();
    for r in budget.power_of_two_core_sizes() {
        let design = SymmetricDesign::new(budget, r)?;
        let speedup = model.speedup_symmetric(&design)?;
        points.push(DesignPoint { area: r, cores: design.cores(), speedup });
    }
    Ok(Curve { label: label.into(), points })
}

/// Sweep an asymmetric CMP over the power-of-two large-core areas for a fixed
/// small-core area `r` using the extended model (one line of Figure 5).
///
/// The largest swept `rl` is half the budget so at least a handful of small
/// cores remain, matching the x-range of the paper's plots (1…128 for a
/// 256-BCE chip).
pub fn asymmetric_curve(
    model: &ExtendedModel,
    budget: ChipBudget,
    r: f64,
    label: impl Into<String>,
) -> Result<Curve, ModelError> {
    let mut points = Vec::new();
    for rl in budget.power_of_two_core_sizes() {
        if rl < r || rl >= budget.total_bce() {
            continue;
        }
        let design = AsymmetricDesign::new(budget, r, rl)?;
        let speedup = model.speedup_asymmetric(&design)?;
        points.push(DesignPoint { area: rl, cores: design.cores(), speedup });
    }
    Ok(Curve { label: label.into(), points })
}

/// Sweep a symmetric CMP under the communication-aware model (Figure 7(a)).
pub fn symmetric_curve_comm(
    model: &CommModel,
    budget: ChipBudget,
    label: impl Into<String>,
) -> Result<Curve, ModelError> {
    let mut points = Vec::new();
    for r in budget.power_of_two_core_sizes() {
        let design = SymmetricDesign::new(budget, r)?;
        let speedup = model.speedup_symmetric(&design)?;
        points.push(DesignPoint { area: r, cores: design.cores(), speedup });
    }
    Ok(Curve { label: label.into(), points })
}

/// Sweep an asymmetric CMP under the communication-aware model (Figure 7(b)).
pub fn asymmetric_curve_comm(
    model: &CommModel,
    budget: ChipBudget,
    r: f64,
    label: impl Into<String>,
) -> Result<Curve, ModelError> {
    let mut points = Vec::new();
    for rl in budget.power_of_two_core_sizes() {
        if rl < r || rl >= budget.total_bce() {
            continue;
        }
        let design = AsymmetricDesign::new(budget, r, rl)?;
        let speedup = model.speedup_asymmetric(&design)?;
        points.push(DesignPoint { area: rl, cores: design.cores(), speedup });
    }
    Ok(Curve { label: label.into(), points })
}

/// The best symmetric design (per-core area and speedup) for a model under a
/// budget, considering power-of-two core sizes.
pub fn best_symmetric(
    model: &ExtendedModel,
    budget: ChipBudget,
) -> Result<DesignPoint, ModelError> {
    let curve = symmetric_curve(model, budget, "best")?;
    curve.peak().ok_or(ModelError::NonFinite { what: "empty symmetric sweep" })
}

/// The best asymmetric design over all combinations of power-of-two small-core
/// and large-core sizes.
pub fn best_asymmetric(
    model: &ExtendedModel,
    budget: ChipBudget,
) -> Result<(f64, DesignPoint), ModelError> {
    let mut best: Option<(f64, DesignPoint)> = None;
    for r in budget.power_of_two_core_sizes() {
        if r >= budget.total_bce() {
            continue;
        }
        let curve = asymmetric_curve(model, budget, r, format!("r={r}"))?;
        if let Some(peak) = curve.peak() {
            let better = match &best {
                None => true,
                Some((_, b)) => peak.speedup > b.speedup,
            };
            if better {
                best = Some((r, peak));
            }
        }
    }
    best.ok_or(ModelError::NonFinite { what: "empty asymmetric sweep" })
}

/// Scalability curve on `p` identical unit cores for `p = 1 … max_cores`
/// (the Figure 3 series). Returns `(p, speedup)` pairs at power-of-two core
/// counts plus the end point.
pub fn unit_core_curve(
    model: &ExtendedModel,
    max_cores: usize,
) -> Result<Vec<(usize, f64)>, ModelError> {
    let mut points = Vec::new();
    let mut p = 1usize;
    while p < max_cores {
        points.push((p, model.speedup_unit_cores(p as f64)?));
        p *= 2;
    }
    points.push((max_cores, model.speedup_unit_cores(max_cores as f64)?));
    Ok(points)
}

/// One of the paper's figure curve families.
///
/// Each figure maps to the family of [`Curve`]s its plot draws; the golden
/// regression tests snapshot these and the serve layer answers
/// `curve(figure)` queries with them, so both pin the exact same numbers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Figure {
    /// Figure 3 — scalability to 256 unit cores: per Table II application,
    /// plain Amdahl (`<app>-amdahl`) vs the extended model
    /// (`<app>-with-reduction`). Points carry the core count on both the
    /// `area` and `cores` axes.
    Fig3,
    /// Figure 4 — symmetric CMPs at 256 BCE: per Table III class, linear and
    /// logarithmic reduction-overhead growth.
    Fig4,
    /// Figure 5 — asymmetric CMPs at 256 BCE: per Table III class, small-core
    /// areas r ∈ {1, 4, 16} under linear growth.
    Fig5,
    /// Figure 7 — the communication-aware model (2-D mesh): symmetric plus
    /// the three asymmetric small-core areas.
    Fig7,
}

impl Figure {
    /// Every figure family, in paper order.
    pub const ALL: [Figure; 4] = [Figure::Fig3, Figure::Fig4, Figure::Fig5, Figure::Fig7];

    /// The figure's lower-case name (`"fig3"`, …).
    pub fn name(&self) -> &'static str {
        match self {
            Figure::Fig3 => "fig3",
            Figure::Fig4 => "fig4",
            Figure::Fig5 => "fig5",
            Figure::Fig7 => "fig7",
        }
    }

    /// Parse a figure name as printed by [`Figure::name`].
    pub fn from_name(name: &str) -> Option<Figure> {
        Figure::ALL.into_iter().find(|figure| figure.name() == name)
    }
}

impl std::fmt::Display for Figure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The complete curve family of one paper figure, in plot order.
///
/// Deterministic: every curve and point is derived from the paper-constant
/// parameter tables through the loops above, so two builds of the same
/// source produce bit-identical results (the property the golden-file tests
/// and the serve differential tests rely on).
pub fn figure_curves(figure: Figure) -> Result<Vec<Curve>, ModelError> {
    let budget = ChipBudget::paper_default();
    let mut curves = Vec::new();
    match figure {
        Figure::Fig3 => {
            for params in AppParams::table2_all() {
                let model =
                    ExtendedModel::new(params.clone(), GrowthFunction::Linear, PerfModel::Pollack);
                let extended = unit_core_curve(&model, 256)?;
                let point =
                    |p: usize, speedup| DesignPoint { area: p as f64, cores: p as f64, speedup };
                let amdahl = extended
                    .iter()
                    .map(|&(p, _)| Ok(point(p, crate::amdahl::amdahl_speedup(params.f, p as f64)?)))
                    .collect::<Result<_, ModelError>>()?;
                curves.push(Curve { label: format!("{}-amdahl", params.name), points: amdahl });
                let points = extended.into_iter().map(|(p, speedup)| point(p, speedup)).collect();
                curves.push(Curve { label: format!("{}-with-reduction", params.name), points });
            }
        }
        Figure::Fig4 => {
            for class in AppClass::table3_all() {
                for growth in [GrowthFunction::Linear, GrowthFunction::Logarithmic] {
                    let label = format!("{}[{}]", class.name(), growth.name());
                    let model = ExtendedModel::new(class.params(), growth, PerfModel::Pollack);
                    curves.push(symmetric_curve(&model, budget, label)?);
                }
            }
        }
        Figure::Fig5 => {
            for class in AppClass::table3_all() {
                let model =
                    ExtendedModel::new(class.params(), GrowthFunction::Linear, PerfModel::Pollack);
                for r in [1.0, 4.0, 16.0] {
                    let label = format!("{}[r={r}]", class.name());
                    curves.push(asymmetric_curve(&model, budget, r, label)?);
                }
            }
        }
        Figure::Fig7 => {
            let class = AppClass {
                embarrassingly_parallel: false,
                high_constant: false,
                high_reduction_overhead: true,
            };
            let model = CommModel::paper_figure7(class.params())?;
            curves.push(symmetric_curve_comm(&model, budget, "symmetric")?);
            for r in [1.0, 4.0, 16.0] {
                let label = format!("asymmetric[r={r}]");
                curves.push(asymmetric_curve_comm(&model, budget, r, label)?);
            }
        }
    }
    Ok(curves)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn budget() -> ChipBudget {
        ChipBudget::paper_default()
    }

    fn extended(emb: bool, high_con: bool, high_ovh: bool) -> ExtendedModel {
        let params = AppClass {
            embarrassingly_parallel: emb,
            high_constant: high_con,
            high_reduction_overhead: high_ovh,
        }
        .params();
        ExtendedModel::new(params, GrowthFunction::Linear, PerfModel::Pollack)
    }

    #[test]
    fn symmetric_curve_covers_all_power_of_two_sizes() {
        let c = symmetric_curve(&extended(true, true, false), budget(), "x").unwrap();
        assert_eq!(c.points.len(), 9);
        assert_eq!(c.points.first().unwrap().area, 1.0);
        assert_eq!(c.points.last().unwrap().area, 256.0);
        assert_eq!(c.points.first().unwrap().cores, 256.0);
    }

    #[test]
    fn asymmetric_curve_excludes_degenerate_designs() {
        let c = asymmetric_curve(&extended(true, true, false), budget(), 4.0, "r=4").unwrap();
        // rl values: 4, 8, ..., 128 (256 excluded, < 4 excluded).
        assert!(c.points.iter().all(|p| p.area >= 4.0 && p.area < 256.0));
        assert_eq!(c.points.len(), 6);
    }

    #[test]
    fn peak_finds_the_maximum() {
        let c = symmetric_curve(&extended(true, false, true), budget(), "x").unwrap();
        let peak = c.peak().unwrap();
        for p in &c.points {
            assert!(p.speedup <= peak.speedup + 1e-12);
        }
    }

    #[test]
    fn best_symmetric_never_at_largest_core_for_parallel_apps() {
        // A fully serial chip (r = 256) cannot be optimal for f >= 0.99.
        let best = best_symmetric(&extended(false, false, true), budget()).unwrap();
        assert!(best.area < 256.0);
    }

    #[test]
    fn high_overhead_never_peaks_at_smallest_cores_under_linear_growth() {
        // Paper: "a design with 256 cores (r = 1) never yields the highest
        // speedup" for linear growth.
        for &(emb, con) in &[(true, true), (true, false), (false, true), (false, false)] {
            for &ovh in &[false, true] {
                let best = best_symmetric(&extended(emb, con, ovh), budget()).unwrap();
                assert!(best.area > 1.0, "emb={emb} con={con} ovh={ovh}");
            }
        }
    }

    #[test]
    fn best_asymmetric_prefers_unit_small_cores_for_low_overhead() {
        // Paper Fig. 5(a/b/e/f): low overhead → r = 1 plus one large core wins.
        let (r, _) = best_asymmetric(&extended(false, true, false), budget()).unwrap();
        assert_eq!(r, 1.0);
    }

    #[test]
    fn best_asymmetric_prefers_larger_small_cores_for_high_overhead() {
        // Paper Fig. 5(d)/(h): non-emb + high overhead → r > 1 wins.
        let (r, _) = best_asymmetric(&extended(false, true, true), budget()).unwrap();
        assert!(r > 1.0);
        let (r, _) = best_asymmetric(&extended(false, false, true), budget()).unwrap();
        assert!(r > 1.0);
    }

    #[test]
    fn unit_core_curve_starts_at_one() {
        let params = AppParams::table2_kmeans();
        let m = ExtendedModel::new(params, GrowthFunction::Linear, PerfModel::Pollack);
        let curve = unit_core_curve(&m, 256).unwrap();
        assert_eq!(curve.first().unwrap().0, 1);
        assert!((curve.first().unwrap().1 - 1.0).abs() < 1e-9);
        assert_eq!(curve.last().unwrap().0, 256);
    }

    #[test]
    fn acmp_advantage_limited_for_high_overhead() {
        // Paper conclusion (c): the performance potential of asymmetric over
        // symmetric CMPs is limited for high-overhead applications.
        let low = extended(false, true, false);
        let high = extended(false, true, true);
        let margin = |m: &ExtendedModel| {
            let sym = best_symmetric(m, budget()).unwrap().speedup;
            let (_, asym) = best_asymmetric(m, budget()).unwrap();
            asym.speedup / sym
        };
        assert!(margin(&low) > margin(&high));
    }

    #[test]
    fn curves_serialize_roundtrip() {
        let c = symmetric_curve(&extended(true, true, true), budget(), "x").unwrap();
        let json = serde_json::to_string(&c).unwrap();
        let back: Curve = serde_json::from_str(&json).unwrap();
        assert_eq!(c.label, back.label);
        assert_eq!(c.points.len(), back.points.len());
        for (a, b) in c.points.iter().zip(back.points.iter()) {
            assert_eq!(a.area, b.area);
            assert!((a.speedup - b.speedup).abs() < 1e-9);
        }
    }

    #[test]
    fn figure_names_round_trip_and_families_are_complete() {
        for figure in Figure::ALL {
            assert_eq!(Figure::from_name(figure.name()), Some(figure));
        }
        assert_eq!(Figure::from_name("fig6"), None);
        // Family sizes: fig3 = 3 apps × 2 models, fig4 = 8 classes × 2
        // growths, fig5 = 8 classes × 3 small-core areas, fig7 = 1 + 3.
        for (figure, expect) in
            [(Figure::Fig3, 6), (Figure::Fig4, 16), (Figure::Fig5, 24), (Figure::Fig7, 4)]
        {
            let curves = figure_curves(figure).unwrap();
            assert_eq!(curves.len(), expect, "{figure}");
            for curve in &curves {
                assert!(!curve.points.is_empty(), "{figure}: {}", curve.label);
                assert!(curve.points.iter().all(|p| p.speedup.is_finite()));
            }
        }
    }

    #[test]
    fn figure_curves_are_deterministic_across_calls() {
        for figure in Figure::ALL {
            let a = figure_curves(figure).unwrap();
            let b = figure_curves(figure).unwrap();
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(b.iter()) {
                assert_eq!(x.label, y.label);
                for (p, q) in x.points.iter().zip(y.points.iter()) {
                    assert_eq!(p.speedup.to_bits(), q.speedup.to_bits());
                }
            }
        }
    }
}
