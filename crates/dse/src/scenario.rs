//! Scenario spaces: cartesian grids and explicit lists of design-space points.
//!
//! A [`ScenarioSpace`] is the cartesian product of seven axes — application
//! parameters, chip budgets, chip designs (core sizes), reduction-overhead
//! growth functions, core performance models, reduction strategies and NoC
//! topologies. Scenarios are never materialised as a collection: the space
//! knows its size and decodes any flat index into a borrowed [`Scenario`]
//! view on demand, so a hundred-million-point space costs as much memory as
//! its axis lists.
//!
//! The decode order places the *design* axis innermost: consecutive indices
//! share the application, growth, performance and strategy axes, which lets
//! batched backends hoist model construction out of their inner loop and
//! keeps a work batch's accesses cache-friendly.

use serde::{Deserialize, Serialize};

use mp_model::chip::ChipBudget;
use mp_model::fingerprint::Fnv64;
use mp_model::growth::GrowthFunction;
use mp_model::params::AppParams;
use mp_model::perf::PerfModel;
use mp_model::topology::Topology;
use mp_par::ReductionStrategy;

/// One chip organisation under a budget: the swept core sizes.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ChipSpec {
    /// A symmetric CMP of identical cores of `r` BCE.
    Symmetric {
        /// Per-core area in BCE.
        r: f64,
    },
    /// An asymmetric CMP: one `rl`-BCE large core plus `r`-BCE small cores.
    Asymmetric {
        /// Small-core area in BCE.
        r: f64,
        /// Large-core area in BCE.
        rl: f64,
    },
}

impl ChipSpec {
    /// The area reported on sweep axes: `r` for symmetric designs, `rl` for
    /// asymmetric ones (matching the x-axes of the paper's figures).
    pub fn area(&self) -> f64 {
        match self {
            ChipSpec::Symmetric { r } => *r,
            ChipSpec::Asymmetric { rl, .. } => *rl,
        }
    }

    /// Number of cores this spec yields under `budget` (fractional counts are
    /// legal in the analytical models).
    pub fn cores(&self, budget: ChipBudget) -> f64 {
        match self {
            ChipSpec::Symmetric { r } => budget.total_bce() / r,
            ChipSpec::Asymmetric { r, rl } => ((budget.total_bce() - rl) / r).max(0.0) + 1.0,
        }
    }

    /// Whether the spec fits the budget (the engine records unfit combinations
    /// as invalid rather than erroring the whole sweep).
    pub fn fits(&self, budget: ChipBudget) -> bool {
        let total = budget.total_bce();
        match self {
            ChipSpec::Symmetric { r } => *r > 0.0 && *r <= total,
            ChipSpec::Asymmetric { r, rl } => {
                *r > 0.0
                    && *rl >= *r
                    && *rl <= total
                    && (rl + r <= total || (*rl - total).abs() < f64::EPSILON)
            }
        }
    }
}

/// A fully-decoded scenario: one point of the cartesian space, borrowing the
/// heavier axis values from the space.
#[derive(Debug, Clone)]
pub struct Scenario<'a> {
    /// Application parameters.
    pub app: &'a AppParams,
    /// Chip area budget.
    pub budget: ChipBudget,
    /// Chip organisation.
    pub design: ChipSpec,
    /// Reduction-overhead growth function (extended model) / reduction
    /// *computation* growth (communication-aware model).
    pub growth: &'a GrowthFunction,
    /// Core performance model.
    pub perf: PerfModel,
    /// Merge implementation (consumed by the simulation backend).
    pub reduction: ReductionStrategy,
    /// Interconnect topology (consumed by the communication-aware backend).
    pub topology: Topology,
}

impl Scenario<'_> {
    /// Number of cores of the scenario's design.
    pub fn cores(&self) -> f64 {
        self.design.cores(self.budget)
    }

    /// Swept-axis area of the scenario's design.
    pub fn area(&self) -> f64 {
        self.design.area()
    }

    /// Canonical 128-bit fingerprint of the scenario's semantic content, used
    /// as the memoisation-cache key. Two scenarios with identical model inputs
    /// hash identically even across differently-shaped spaces: the key is
    /// computed from parameter *values* (bit patterns with `-0.0`
    /// canonicalised to `0.0`), never from axis indices. `salt` distinguishes
    /// backends.
    ///
    /// The design is folded in *last*, so a batch over the design-innermost
    /// index order can hash the shared axes once via
    /// [`Scenario::canonical_key_prefix`] and derive each design's key from
    /// the saved prefix state — the per-scenario hashing cost of the sweep
    /// hot loop drops from the whole scenario to just the design.
    pub fn canonical_key(&self, salt: &str) -> (u64, u64) {
        self.canonical_key_prefix(salt).key_for(self.design)
    }

    /// Hash every axis but the design, returning a resumable prefix. One
    /// prefix serves a whole run of consecutive designs.
    pub fn canonical_key_prefix(&self, salt: &str) -> CanonicalKeyPrefix {
        let mut hasher = Fnv128::new();
        hasher.write_str(salt);
        hasher.write_f64(self.app.f);
        hasher.write_f64(self.app.split.fcon);
        hasher.write_f64(self.app.split.fred);
        hasher.write_f64(self.app.fored);
        hasher.write_f64(self.app.critical_section);
        hasher.write_f64(self.budget.total_bce());
        match self.growth {
            GrowthFunction::Constant => hasher.write_u8(10),
            GrowthFunction::Linear => hasher.write_u8(11),
            GrowthFunction::Logarithmic => hasher.write_u8(12),
            GrowthFunction::Superlinear(exp) => {
                hasher.write_u8(13);
                hasher.write_f64(*exp);
            }
            GrowthFunction::Measured(points) => {
                hasher.write_u8(14);
                for (x, y) in points {
                    hasher.write_f64(*x);
                    hasher.write_f64(*y);
                }
            }
        }
        match self.perf {
            PerfModel::Pollack => hasher.write_u8(20),
            PerfModel::Linear => hasher.write_u8(21),
            PerfModel::Power(exp) => {
                hasher.write_u8(22);
                hasher.write_f64(exp);
            }
            PerfModel::Logarithmic(k) => {
                hasher.write_u8(23);
                hasher.write_f64(k);
            }
        }
        hasher.write_u8(match self.reduction {
            ReductionStrategy::SerialLinear => 30,
            ReductionStrategy::TreeLog => 31,
            ReductionStrategy::ParallelPrivatized => 32,
        });
        hasher.write_u8(match self.topology {
            Topology::Mesh2D => 40,
            Topology::Torus2D => 41,
            Topology::Ring => 42,
            Topology::Crossbar => 43,
            Topology::Ideal => 44,
        });
        CanonicalKeyPrefix { hasher }
    }
}

/// Saved canonical-key hash state covering every axis but the design. `Copy`,
/// two words: cloning it per design is free.
#[derive(Debug, Clone, Copy)]
pub struct CanonicalKeyPrefix {
    hasher: Fnv128,
}

impl CanonicalKeyPrefix {
    /// Complete the key for one design.
    pub fn key_for(mut self, design: ChipSpec) -> (u64, u64) {
        match design {
            ChipSpec::Symmetric { r } => {
                self.hasher.write_u8(1);
                self.hasher.write_f64(r);
            }
            ChipSpec::Asymmetric { r, rl } => {
                self.hasher.write_u8(2);
                self.hasher.write_f64(r);
                self.hasher.write_f64(rl);
            }
        }
        self.hasher.finish()
    }
}

/// Two independent [`Fnv64`] streams (distinct bases) giving a 128-bit
/// fingerprint; the byte-fold and `-0.0` canonicalisation live in
/// [`mp_model::fingerprint`], shared with the export labels.
#[derive(Debug, Clone, Copy)]
struct Fnv128 {
    a: Fnv64,
    b: Fnv64,
}

impl Fnv128 {
    fn new() -> Self {
        Fnv128 { a: Fnv64::new(), b: Fnv64::with_basis(0x6c62_272e_07bb_0142) }
    }

    fn write_u8(&mut self, byte: u8) {
        self.a.write_u8(byte);
        self.b.write_u8(byte);
    }

    fn write_f64(&mut self, value: f64) {
        self.a.write_f64(value);
        self.b.write_f64(value);
    }

    fn write_str(&mut self, s: &str) {
        self.a.write_str(s);
        self.b.write_str(s);
    }

    fn finish(&self) -> (u64, u64) {
        (self.a.finish(), self.b.finish())
    }
}

/// `points` values log-spaced from 1 to `max`: `max^(i / (points − 1))`.
///
/// Computed as `exp2(log2(max) · t)`, which is what an optimised build makes
/// of `max.powf(t)` for a constant `max` while a debug build calls `pow`, so
/// that both builds sweep, and export, the same bits.
pub fn log_spaced(points: usize, max: f64) -> impl Iterator<Item = f64> {
    let steps = points.saturating_sub(1).max(1) as f64;
    (0..points).map(move |i| (max.log2() * (i as f64 / steps)).exp2())
}

/// The cartesian product of the seven scenario axes.
///
/// Build one with the fluent setters, then hand it to
/// [`crate::engine::Engine::sweep`]. Every axis defaults to a single
/// paper-default element, so only the axes being explored need to be set.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioSpace {
    apps: Vec<AppParams>,
    budgets: Vec<f64>,
    designs: Vec<ChipSpec>,
    growths: Vec<GrowthFunction>,
    perfs: Vec<PerfModel>,
    reductions: Vec<ReductionStrategy>,
    topologies: Vec<Topology>,
}

impl Default for ScenarioSpace {
    fn default() -> Self {
        ScenarioSpace::new()
    }
}

impl ScenarioSpace {
    /// A space holding the paper's default single point on every axis
    /// (kmeans parameters, 256 BCE, `r = 1` symmetric, linear growth, Pollack
    /// cores, serial-linear merge, 2-D mesh).
    pub fn new() -> Self {
        ScenarioSpace {
            apps: vec![AppParams::table2_kmeans()],
            budgets: vec![ChipBudget::PAPER_DEFAULT_BCE],
            designs: vec![ChipSpec::Symmetric { r: 1.0 }],
            growths: vec![GrowthFunction::Linear],
            perfs: vec![PerfModel::Pollack],
            reductions: vec![ReductionStrategy::SerialLinear],
            topologies: vec![Topology::Mesh2D],
        }
    }

    /// Set the application axis.
    pub fn with_apps(mut self, apps: Vec<AppParams>) -> Self {
        assert!(!apps.is_empty(), "application axis must not be empty");
        self.apps = apps;
        self
    }

    /// Set the budget axis (total BCE per chip).
    pub fn with_budgets(mut self, budgets: Vec<f64>) -> Self {
        assert!(!budgets.is_empty(), "budget axis must not be empty");
        assert!(budgets.iter().all(|&b| b.is_finite() && b > 0.0), "budgets must be positive");
        self.budgets = budgets;
        self
    }

    /// Set the design axis to an explicit list.
    pub fn with_designs(mut self, designs: Vec<ChipSpec>) -> Self {
        assert!(!designs.is_empty(), "design axis must not be empty");
        self.designs = designs;
        self
    }

    /// Append a symmetric-design grid over the given per-core areas.
    pub fn add_symmetric_grid(mut self, rs: impl IntoIterator<Item = f64>) -> Self {
        self.designs.extend(rs.into_iter().map(|r| ChipSpec::Symmetric { r }));
        self
    }

    /// Append an asymmetric-design grid over the cartesian product of small-
    /// and large-core areas (pairs with `rl < r` are skipped).
    pub fn add_asymmetric_grid(
        mut self,
        rs: impl IntoIterator<Item = f64>,
        rls: impl IntoIterator<Item = f64> + Clone,
    ) -> Self {
        for r in rs {
            for rl in rls.clone() {
                if rl >= r {
                    self.designs.push(ChipSpec::Asymmetric { r, rl });
                }
            }
        }
        self
    }

    /// Replace the design axis with the empty list, ready for `add_*_grid`
    /// calls (the constructor seeds one default design).
    pub fn clear_designs(mut self) -> Self {
        self.designs.clear();
        self
    }

    /// Set the growth-function axis.
    pub fn with_growths(mut self, growths: Vec<GrowthFunction>) -> Self {
        assert!(!growths.is_empty(), "growth axis must not be empty");
        self.growths = growths;
        self
    }

    /// Set the performance-model axis.
    pub fn with_perfs(mut self, perfs: Vec<PerfModel>) -> Self {
        assert!(!perfs.is_empty(), "perf axis must not be empty");
        self.perfs = perfs;
        self
    }

    /// Set the reduction-strategy axis.
    pub fn with_reductions(mut self, reductions: Vec<ReductionStrategy>) -> Self {
        assert!(!reductions.is_empty(), "reduction axis must not be empty");
        self.reductions = reductions;
        self
    }

    /// Set the topology axis.
    pub fn with_topologies(mut self, topologies: Vec<Topology>) -> Self {
        assert!(!topologies.is_empty(), "topology axis must not be empty");
        self.topologies = topologies;
        self
    }

    /// The application axis.
    pub fn apps(&self) -> &[AppParams] {
        &self.apps
    }

    /// The budget axis.
    pub fn budgets(&self) -> &[f64] {
        &self.budgets
    }

    /// The design axis.
    pub fn designs(&self) -> &[ChipSpec] {
        &self.designs
    }

    /// The growth axis.
    pub fn growths(&self) -> &[GrowthFunction] {
        &self.growths
    }

    /// The perf axis.
    pub fn perfs(&self) -> &[PerfModel] {
        &self.perfs
    }

    /// The reduction axis.
    pub fn reductions(&self) -> &[ReductionStrategy] {
        &self.reductions
    }

    /// The topology axis.
    pub fn topologies(&self) -> &[Topology] {
        &self.topologies
    }

    /// How reports spell each value of the six non-design axes — decided here
    /// and nowhere else: the CSV/JSON export, the per-axis optima and the CLI's
    /// row labels index these tables with [`ScenarioSpace::decode`].
    pub fn labels(&self) -> AxisLabels {
        AxisLabels {
            app: self.apps.iter().map(|app| app.name.clone()).collect(),
            budget: self.budgets.iter().map(|budget| format!("{budget}")).collect(),
            growth: self.growths.iter().map(GrowthFunction::label).collect(),
            perf: self.perfs.iter().map(PerfModel::label).collect(),
            reduction: self.reductions.iter().map(|r| r.name().to_string()).collect(),
            // Exported files pin the `Debug` spelling of `Topology`.
            topology: self.topologies.iter().map(|topology| format!("{topology:?}")).collect(),
        }
    }

    /// Total number of scenarios (product of the axis lengths).
    pub fn len(&self) -> usize {
        self.apps.len()
            * self.budgets.len()
            * self.growths.len()
            * self.perfs.len()
            * self.reductions.len()
            * self.topologies.len()
            * self.designs.len()
    }

    /// Whether the space is empty (an axis was explicitly emptied).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Decode the flat index `index` into its per-axis indices, design axis
    /// fastest-varying. The order is `app` (slowest), `growth`, `perf`,
    /// `reduction`, `topology`, `budget`, `design` (fastest).
    pub fn decode(&self, index: usize) -> ScenarioIndex {
        assert!(index < self.len(), "scenario index {index} out of range");
        let mut rest = index;
        let design = rest % self.designs.len();
        rest /= self.designs.len();
        let budget = rest % self.budgets.len();
        rest /= self.budgets.len();
        let topology = rest % self.topologies.len();
        rest /= self.topologies.len();
        let reduction = rest % self.reductions.len();
        rest /= self.reductions.len();
        let perf = rest % self.perfs.len();
        rest /= self.perfs.len();
        let growth = rest % self.growths.len();
        rest /= self.growths.len();
        ScenarioIndex { app: rest, growth, perf, reduction, topology, budget, design }
    }

    /// Materialise the scenario at flat index `index`.
    pub fn scenario(&self, index: usize) -> Scenario<'_> {
        let ix = self.decode(index);
        Scenario {
            app: &self.apps[ix.app],
            budget: ChipBudget::new(self.budgets[ix.budget]),
            design: self.designs[ix.design],
            growth: &self.growths[ix.growth],
            perf: self.perfs[ix.perf],
            reduction: self.reductions[ix.reduction],
            topology: self.topologies[ix.topology],
        }
    }
}

/// Report labels of a space's non-design axes, from [`ScenarioSpace::labels`]:
/// one entry per axis value in axis order, so `labels.growth[ix.growth]` names
/// the growth function of the scenario a [`ScenarioIndex`] `ix` decodes to.
#[derive(Debug, Clone)]
pub struct AxisLabels {
    /// Application names.
    pub app: Vec<String>,
    /// Budgets in BCE.
    pub budget: Vec<String>,
    /// Growth-function labels.
    pub growth: Vec<String>,
    /// Performance-model labels.
    pub perf: Vec<String>,
    /// Reduction-strategy names.
    pub reduction: Vec<String>,
    /// Topology names.
    pub topology: Vec<String>,
}

/// Per-axis indices of one scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScenarioIndex {
    /// Index into the application axis.
    pub app: usize,
    /// Index into the growth axis.
    pub growth: usize,
    /// Index into the perf axis.
    pub perf: usize,
    /// Index into the reduction axis.
    pub reduction: usize,
    /// Index into the topology axis.
    pub topology: usize,
    /// Index into the budget axis.
    pub budget: usize,
    /// Index into the design axis.
    pub design: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_by_three() -> ScenarioSpace {
        ScenarioSpace::new()
            .with_apps(vec![AppParams::table2_kmeans(), AppParams::table2_hop()])
            .clear_designs()
            .add_symmetric_grid([1.0, 4.0, 16.0])
    }

    #[test]
    fn len_is_the_axis_product() {
        let space = two_by_three();
        assert_eq!(space.len(), 6);
        let space = space.with_growths(vec![GrowthFunction::Linear, GrowthFunction::Logarithmic]);
        assert_eq!(space.len(), 12);
    }

    #[test]
    fn decode_covers_every_combination_exactly_once() {
        let space = two_by_three()
            .with_growths(vec![GrowthFunction::Linear, GrowthFunction::Logarithmic])
            .with_budgets(vec![64.0, 256.0]);
        let mut seen = std::collections::HashSet::new();
        for i in 0..space.len() {
            let ix = space.decode(i);
            assert!(seen.insert((ix.app, ix.growth, ix.budget, ix.design)));
        }
        assert_eq!(seen.len(), space.len());
    }

    #[test]
    fn design_axis_varies_fastest() {
        let space = two_by_three();
        let a = space.decode(0);
        let b = space.decode(1);
        assert_eq!(a.app, b.app);
        assert_ne!(a.design, b.design);
    }

    #[test]
    fn canonical_key_ignores_app_name_but_not_values() {
        let space_a =
            ScenarioSpace::new().with_apps(vec![AppParams::table2_kmeans().with_name("renamed")]);
        let space_b = ScenarioSpace::new();
        assert_eq!(space_a.scenario(0).canonical_key("x"), space_b.scenario(0).canonical_key("x"));
        let space_c = ScenarioSpace::new().with_apps(vec![AppParams::table2_fuzzy()]);
        assert_ne!(space_b.scenario(0).canonical_key("x"), space_c.scenario(0).canonical_key("x"));
    }

    #[test]
    fn key_prefix_resumes_to_the_full_key() {
        let space = two_by_three()
            .with_growths(vec![
                GrowthFunction::Superlinear(1.55),
                GrowthFunction::Measured(vec![(1.0, 0.0), (8.0, 4.0)]),
            ])
            .with_budgets(vec![64.0, 256.0]);
        for index in 0..space.len() {
            let scenario = space.scenario(index);
            let prefix = scenario.canonical_key_prefix("salt");
            assert_eq!(prefix.key_for(scenario.design), scenario.canonical_key("salt"));
        }
        // And the prefix is design-agnostic: one prefix serves any design.
        let a = space.scenario(0);
        let b = space.scenario(1);
        assert_eq!(a.canonical_key_prefix("s").key_for(b.design), b.canonical_key("s"));
    }

    #[test]
    fn canonical_key_distinguishes_backends() {
        let space = ScenarioSpace::new();
        assert_ne!(space.scenario(0).canonical_key("a"), space.scenario(0).canonical_key("b"));
    }

    #[test]
    fn chip_spec_geometry() {
        let budget = ChipBudget::paper_default();
        assert_eq!(ChipSpec::Symmetric { r: 4.0 }.cores(budget), 64.0);
        assert_eq!(ChipSpec::Asymmetric { r: 1.0, rl: 4.0 }.cores(budget), 253.0);
        assert!(ChipSpec::Symmetric { r: 256.0 }.fits(budget));
        assert!(!ChipSpec::Symmetric { r: 300.0 }.fits(budget));
        assert!(!ChipSpec::Asymmetric { r: 1.0, rl: 255.5 }.fits(budget));
        assert!(ChipSpec::Asymmetric { r: 1.0, rl: 256.0 }.fits(budget));
    }

    #[test]
    fn asymmetric_grid_skips_inverted_pairs() {
        let space =
            ScenarioSpace::new().clear_designs().add_asymmetric_grid([4.0], [1.0, 2.0, 4.0, 8.0]);
        assert_eq!(space.designs().len(), 2); // rl = 4 and rl = 8 only
    }
}
