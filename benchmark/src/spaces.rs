//! The scenario spaces the benchmark sweeps: the ones `repro dse` builds for
//! each backend. Only the analytic space is a public function of `mp-bench`;
//! the other three are rebuilt here from the public `ScenarioSpace` builders
//! and pinned to the scenario counts `repro dse --backend …` reports.

use mp_bench::dse_cmd::{experiment_space, synthetic_calibrations};
use mp_dse::prelude::*;
use mp_model::growth::GrowthFunction;
use mp_model::perf::PerfModel;
use mp_model::topology::Topology;

/// The 214 236-scenario analytic space of `repro dse`.
pub fn analytic() -> ScenarioSpace {
    experiment_space(false)
}

/// The `repro dse --backend sim` grid: integer core sizes 1..=128 plus the
/// asymmetric grid, three budgets, three reduction strategies.
pub fn sim() -> ScenarioSpace {
    let pow2 = std::iter::successors(Some(2.0f64), |r| (r * 2.0 <= 128.0).then_some(r * 2.0));
    analytic()
        .clear_designs()
        .add_symmetric_grid((1..=128).map(|r| r as f64))
        .add_asymmetric_grid([1.0, 2.0, 4.0, 8.0, 16.0], pow2)
        .with_growths(vec![GrowthFunction::Linear])
        .with_perfs(vec![PerfModel::Pollack])
        .with_reductions(mp_par::ReductionStrategy::all().to_vec())
}

/// The `repro dse --backend comm` space: the analytic axes times four
/// interconnect topologies.
pub fn comm() -> ScenarioSpace {
    analytic().with_topologies(vec![
        Topology::Mesh2D,
        Topology::Torus2D,
        Topology::Crossbar,
        Topology::Ideal,
    ])
}

/// The `repro dse --backend measured` space and its backend: the calibrated
/// applications with the growth axis collapsed.
pub fn measured() -> (ScenarioSpace, MeasuredBackend) {
    let calibrations = synthetic_calibrations();
    let apps = calibrations.iter().map(|c| c.app_params().clone()).collect();
    let space = analytic().with_apps(apps).with_growths(vec![GrowthFunction::Linear]);
    (space, MeasuredBackend::new(calibrations))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spaces_have_the_sizes_repro_dse_reports() {
        assert_eq!(analytic().len(), 214_236);
        assert_eq!(sim().len(), 15_543);
        assert_eq!(comm().len(), 4 * 214_236);
        assert_eq!(measured().0.len(), 214_236 / 4);
    }
}
