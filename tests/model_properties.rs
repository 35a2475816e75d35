//! Property-based tests of the analytical models' invariants.

use merging_phases::model::explore::symmetric_curve;
use merging_phases::model::hill_marty;
use merging_phases::prelude::*;
use proptest::prelude::*;

fn arb_params() -> impl Strategy<Value = AppParams> {
    (0.5f64..=0.9999, 0.0f64..=1.0, 0.0f64..=2.0)
        .prop_map(|(f, fcon, fored)| AppParams::new("prop", f, fcon, fored, 0.0).unwrap())
}

fn arb_core_area() -> impl Strategy<Value = f64> {
    prop_oneof![
        Just(1.0),
        Just(2.0),
        Just(4.0),
        Just(8.0),
        Just(16.0),
        Just(32.0),
        Just(64.0),
        Just(128.0),
        Just(256.0)
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The extended model can never predict more speedup than Hill–Marty with
    /// the same parallel fraction: reduction overhead only removes performance.
    #[test]
    fn extended_speedup_never_exceeds_hill_marty(params in arb_params(), r in arb_core_area()) {
        let budget = ChipBudget::paper_default();
        let design = SymmetricDesign::new(budget, r).unwrap();
        let model = ExtendedModel::new(params.clone(), GrowthFunction::Linear, PerfModel::Pollack);
        let extended = model.speedup_symmetric(&design).unwrap();
        let hm = hill_marty::symmetric_speedup(params.f, &design, &PerfModel::Pollack).unwrap();
        prop_assert!(extended <= hm + 1e-9);
    }

    /// Zero reduction overhead collapses the extended model onto Hill–Marty.
    #[test]
    fn zero_overhead_matches_hill_marty(f in 0.5f64..=0.9999, fcon in 0.0f64..=1.0, r in arb_core_area()) {
        let params = AppParams::new("p", f, fcon, 0.0, 0.0).unwrap();
        let budget = ChipBudget::paper_default();
        let design = SymmetricDesign::new(budget, r).unwrap();
        let model = ExtendedModel::new(params, GrowthFunction::Linear, PerfModel::Pollack);
        let extended = model.speedup_symmetric(&design).unwrap();
        let hm = hill_marty::symmetric_speedup(f, &design, &PerfModel::Pollack).unwrap();
        prop_assert!((extended - hm).abs() < 1e-9);
    }

    /// Speedups are always at least ~the serial-core performance share and
    /// bounded by the chip's aggregate throughput.
    #[test]
    fn symmetric_speedup_is_bounded(params in arb_params(), r in arb_core_area()) {
        let budget = ChipBudget::paper_default();
        let design = SymmetricDesign::new(budget, r).unwrap();
        let model = ExtendedModel::new(params, GrowthFunction::Linear, PerfModel::Pollack);
        let speedup = model.speedup_symmetric(&design).unwrap();
        let upper = PerfModel::Pollack.perf(r).unwrap() * design.cores();
        prop_assert!(speedup > 0.0);
        prop_assert!(speedup <= upper + 1e-9, "speedup {speedup} exceeds throughput bound {upper}");
    }

    /// The serial-section multiplier is 1 at one thread and non-decreasing in
    /// the thread count for every growth function.
    #[test]
    fn serial_multiplier_monotone(params in arb_params(), log in proptest::bool::ANY) {
        let growth = if log { GrowthFunction::Logarithmic } else { GrowthFunction::Linear };
        let model = ExtendedModel::new(params, growth, PerfModel::Pollack);
        prop_assert!((model.serial_multiplier(1.0) - 1.0).abs() < 1e-12);
        let mut prev = 0.0;
        for p in [1usize, 2, 4, 8, 16, 64, 256] {
            let m = model.serial_multiplier(p as f64);
            prop_assert!(m >= prev - 1e-12);
            prev = m;
        }
    }

    /// Increasing the reduction-overhead coefficient never increases speedup
    /// and never moves the optimal core size toward smaller cores.
    #[test]
    fn more_overhead_means_less_speedup(f in 0.9f64..=0.999, fcon in 0.1f64..=0.9, r in arb_core_area()) {
        let budget = ChipBudget::paper_default();
        let design = SymmetricDesign::new(budget, r).unwrap();
        let low = AppParams::new("low", f, fcon, 0.1, 0.0).unwrap();
        let high = AppParams::new("high", f, fcon, 0.8, 0.0).unwrap();
        let low_m = ExtendedModel::new(low, GrowthFunction::Linear, PerfModel::Pollack);
        let high_m = ExtendedModel::new(high, GrowthFunction::Linear, PerfModel::Pollack);
        prop_assert!(high_m.speedup_symmetric(&design).unwrap() <= low_m.speedup_symmetric(&design).unwrap() + 1e-9);

        let low_best = symmetric_curve(&low_m, budget, "l").unwrap().peak().unwrap();
        let high_best = symmetric_curve(&high_m, budget, "h").unwrap().peak().unwrap();
        prop_assert!(high_best.area >= low_best.area - 1e-9);
    }

    /// The communication-aware model is never more optimistic than Hill–Marty
    /// either, and better topologies never hurt.
    #[test]
    fn comm_model_bounded_and_topology_monotone(params in arb_params(), r in arb_core_area()) {
        let budget = ChipBudget::paper_default();
        let design = SymmetricDesign::new(budget, r).unwrap();
        let comm = CommModel::paper_figure7(params.clone()).unwrap();
        let mesh = comm.speedup_symmetric(&design).unwrap();
        let hm = hill_marty::symmetric_speedup(params.f, &design, &PerfModel::Pollack).unwrap();
        prop_assert!(mesh <= hm + 1e-9);
        let ideal = comm.clone().with_topology(Topology::Ideal).speedup_symmetric(&design).unwrap();
        prop_assert!(ideal + 1e-9 >= mesh);
    }

    /// Amdahl's law brackets: speedup is between 1 and min(p, 1/s).
    #[test]
    fn amdahl_bracket(f in 0.0f64..=1.0, p in 1.0f64..=4096.0) {
        let s = amdahl_speedup(f, p).unwrap();
        prop_assert!(s >= 1.0 - 1e-12);
        prop_assert!(s <= p + 1e-9);
        if f < 1.0 {
            prop_assert!(s <= 1.0 / (1.0 - f) + 1e-9);
        }
    }

    /// Parameter extraction inverts the model: profiles generated from known
    /// parameters yield those parameters back.
    #[test]
    fn extraction_roundtrip(f in 0.9f64..=0.9999, fcon in 0.05f64..=0.95, fored in 0.05f64..=1.5) {
        use merging_phases::model::phase::{PhaseKind, PhaseRecord, RunProfile};
        let s = 1.0 - f;
        let runs: Vec<MeasuredRun> = [1usize, 2, 4, 8, 16].iter().map(|&p| {
            let mut profile = RunProfile::new("roundtrip", p);
            let mut push = |kind, seconds| profile.push(PhaseRecord::new(kind, "x", seconds, p));
            push(PhaseKind::Parallel, f / p as f64);
            push(PhaseKind::SerialConstant, s * fcon);
            push(PhaseKind::Reduction, s * (1.0 - fcon) * (1.0 + fored * (p as f64 - 1.0)));
            profile.to_measured_run()
        }).collect();
        let accounting = RunAccounting::from_runs(&runs).unwrap();
        prop_assert!((accounting.f - f).abs() < 1e-6);
        prop_assert!((accounting.fcon - fcon).abs() < 1e-6);
        prop_assert!((accounting.fored(&GrowthFunction::Linear) - fored).abs() < 1e-4);
    }
}
