//! Cross-validation between the timing simulator and the analytical model —
//! the repository-level analogue of the paper's Figure 2(d) accuracy check.
//!
//! The extended model is fitted from the simulator's 1–16-core profiles and
//! must then predict the simulator's serial-section growth and speedups within
//! a reasonable tolerance for the near-linear workloads (kmeans, fuzzy).

use merging_phases::cmpsim::program::ReductionKind;
use merging_phases::cmpsim::{
    fuzzy_program, kmeans_program, simulate, simulate_profile, Machine, WorkloadShape,
};
use merging_phases::model::serial_time::serial_growth_factor;
use merging_phases::prelude::*;

/// The Section V-A accounting of the simulator's 1–16-core runs of `app`.
fn simulated_accounting(app: &str) -> RunAccounting {
    let program = match app {
        "kmeans" => kmeans_program(&WorkloadShape::kmeans_base(), ReductionKind::SerialLinear),
        "fuzzy" => fuzzy_program(&WorkloadShape::kmeans_base(), ReductionKind::SerialLinear),
        _ => unreachable!(),
    };
    let runs: Vec<MeasuredRun> = [1usize, 2, 4, 8, 16]
        .iter()
        .map(|&cores| simulate_profile(&program, &Machine::table1(cores)).to_measured_run())
        .collect();
    RunAccounting::from_runs(&runs).unwrap()
}

/// The extended-model parameters with `fored` fitted under linear growth.
fn linear_params(app: &str, accounting: &RunAccounting) -> AppParams {
    let fored = accounting.fored(&GrowthFunction::Linear);
    AppParams::new(app, accounting.f, accounting.fcon, fored, 0.0).unwrap()
}

#[test]
fn model_predicts_simulated_serial_growth_for_linear_workloads() {
    for app in ["kmeans", "fuzzy"] {
        let accounting = simulated_accounting(app);
        let params = linear_params(app, &accounting);
        for &(threads, observed) in &accounting.serial_multipliers {
            let predicted = serial_growth_factor(&params, &GrowthFunction::Linear, threads as f64);
            let ratio = predicted / observed;
            assert!(
                (ratio - 1.0).abs() < 0.25,
                "{app} at {threads} threads: predicted {predicted:.3}, observed {observed:.3}"
            );
        }
    }
}

#[test]
fn model_and_simulator_agree_on_sixteen_core_speedup() {
    for app in ["kmeans", "fuzzy"] {
        let accounting = simulated_accounting(app);
        let params = linear_params(app, &accounting);
        let model = ExtendedModel::new(params, GrowthFunction::Linear, PerfModel::Pollack);

        let &(_, simulated_speedup) = accounting.speedups.iter().find(|&&(p, _)| p == 16).unwrap();
        let predicted_speedup = model.speedup_unit_cores(16.0).unwrap();
        let rel_err = (simulated_speedup - predicted_speedup).abs() / simulated_speedup;
        assert!(
            rel_err < 0.15,
            "{app}: simulated {simulated_speedup:.2} vs predicted {predicted_speedup:.2}"
        );
    }
}

#[test]
fn simulator_reproduces_the_models_preference_for_larger_cores() {
    // Build a symmetric 256-BCE machine from r-BCE cores in the simulator and
    // check that, as in Figure 4, a high-overhead workload prefers r > 1.
    let shape = WorkloadShape { iterations: 5, ..WorkloadShape::kmeans_base() };
    // Exaggerate the merge so the overhead matters at 256 cores.
    let program = kmeans_program(&shape, ReductionKind::SerialLinear);

    let speedup_for = |r: f64| {
        let cores = (256.0 / r) as usize;
        let machine = Machine::symmetric(cores, r, Default::default());
        let base = simulate(&program, &Machine::symmetric(1, 1.0, Default::default()));
        let scaled = simulate(&program, &machine);
        base.total_cycles() / scaled.total_cycles()
    };
    let at_r1 = speedup_for(1.0);
    let at_r4 = speedup_for(4.0);
    // The merging overhead at 256 single-BCE cores is large enough that 64
    // four-BCE cores do at least comparably well (the paper's qualitative
    // "fewer, more capable cores" shift).
    assert!(
        at_r4 > at_r1 * 0.8,
        "r=4 speedup {at_r4:.1} should be competitive with r=1 speedup {at_r1:.1}"
    );
}

#[test]
fn privatized_merge_moves_simulated_cost_into_communication() {
    let program_lin = kmeans_program(&WorkloadShape::kmeans_base(), ReductionKind::SerialLinear);
    let program_par =
        kmeans_program(&WorkloadShape::kmeans_base(), ReductionKind::ParallelPrivatized);
    let machine = Machine::table1(16);
    let lin = simulate(&program_lin, &machine);
    let par = simulate(&program_par, &machine);
    assert_eq!(lin.cycles_in(merging_phases::profile::PhaseKind::Communication), 0.0);
    assert!(par.cycles_in(merging_phases::profile::PhaseKind::Communication) > 0.0);
    assert!(
        par.cycles_in(merging_phases::profile::PhaseKind::Reduction)
            < lin.cycles_in(merging_phases::profile::PhaseKind::Reduction)
    );
}
