//! End-to-end calibration tests: simulated/synthetic profiles with known
//! injected fractions must calibrate back to those fractions, and the
//! measured DSE backend must agree with the analytic backend when both are
//! given the same fractions. Every calibration here is the one fold the
//! library has: records → `RunProfile::to_measured_run` →
//! `CalibratedParams::fit`.

use merging_phases::cmpsim::{kmeans_program, simulate_profile, Machine, WorkloadShape};
use merging_phases::dse::{AnalyticBackend, EvalBackend, MeasuredBackend, ScenarioSpace};
use merging_phases::model::calibrate::CalibratedParams;
use merging_phases::model::growth::GrowthFunction;
use merging_phases::prelude::*;

/// A synthetic profile following the extended model exactly: parallel `f/p`,
/// constant serial `s·fcon`, reduction `s·fred·(1 + fored·grow(p))`.
fn injected_profile(app: &str, p: usize, f: f64, fcon: f64, fored: f64) -> RunProfile {
    let s = 1.0 - f;
    let mut profile = RunProfile::new(app, p);
    profile.push(PhaseRecord::new(PhaseKind::Init, "init", 0.02, p));
    profile.push(PhaseRecord::new(PhaseKind::Parallel, "par", f / p as f64, p));
    profile.push(PhaseRecord::new(PhaseKind::SerialConstant, "ser", s * fcon, p));
    profile.push(PhaseRecord::new(
        PhaseKind::Reduction,
        "red",
        s * (1.0 - fcon) * (1.0 + fored * (p as f64 - 1.0)),
        p,
    ));
    profile
}

fn injected_calibration(f: f64, fcon: f64, fored: f64) -> CalibratedParams {
    let runs: Vec<MeasuredRun> = [1usize, 2, 4, 8, 16]
        .iter()
        .map(|&p| injected_profile("injected", p, f, fcon, fored).to_measured_run())
        .collect();
    CalibratedParams::fit("injected", &runs).expect("synthetic sweep calibrates")
}

#[test]
fn calibration_recovers_injected_fractions() {
    let (f, fcon, fored) = (0.99, 0.6, 0.8);
    let calibrated = injected_calibration(f, fcon, fored);
    let app = calibrated.app_params();
    assert!((app.f - f).abs() < 1e-9, "f: {}", app.f);
    assert!((app.split.fcon - fcon).abs() < 1e-9, "fcon: {}", app.split.fcon);
    assert!((app.split.fred - (1.0 - fcon)).abs() < 1e-9, "fred: {}", app.split.fred);
    assert!((app.fored - fored).abs() < 1e-6, "fored: {}", app.fored);
    assert_eq!(calibrated.growth(), &GrowthFunction::Linear);
}

#[test]
fn measured_backend_agrees_with_analytic_on_injected_fractions() {
    let calibrated = injected_calibration(0.995, 0.55, 1.1);
    let backend = MeasuredBackend::new(vec![calibrated]);
    // Same fractions, same (fitted linear) growth: the analytic backend on
    // the measured app axis must produce the same speedups.
    let space = ScenarioSpace::new()
        .with_apps(backend.apps())
        .with_budgets(vec![64.0, 256.0])
        .clear_designs()
        .add_symmetric_grid([1.0, 2.0, 4.0, 16.0, 64.0])
        .add_asymmetric_grid([1.0, 4.0], [8.0, 64.0]);
    assert!(space.len() > 10);
    for index in 0..space.len() {
        let scenario = space.scenario(index);
        if !scenario.design.fits(scenario.budget) {
            continue;
        }
        let measured = backend.evaluate(&scenario).unwrap();
        let analytic = AnalyticBackend.evaluate(&scenario).unwrap();
        assert!(
            (measured - analytic).abs() / analytic < 1e-6,
            "index {index}: measured {measured} vs analytic {analytic}"
        );
    }
}

#[test]
fn calibration_from_cmpsim_simulation_tracks_the_observed_growth() {
    use merging_phases::par::ReductionStrategy;
    // Deterministic source: the timing simulator's kmeans phase programs at
    // 1–16 cores, the same runs Figure 2 is generated from.
    let program = kmeans_program(&WorkloadShape::kmeans_base(), ReductionStrategy::SerialLinear);
    let runs: Vec<MeasuredRun> = [1usize, 2, 4, 8, 16]
        .iter()
        .map(|&cores| simulate_profile(&program, &Machine::table1(cores)).to_measured_run())
        .collect();
    let calibrated = CalibratedParams::fit("kmeans-sim", &runs).unwrap();
    // The simulated kmeans merge grows essentially linearly while the partial
    // tables stay cache-resident, so the calibrated closed form must track
    // the observed multipliers tightly.
    for &(p, observed) in calibrated.serial_multipliers() {
        let predicted = calibrated.predicted_multiplier(p as f64);
        assert!(
            (predicted - observed).abs() / observed < 0.25,
            "p={p}: predicted {predicted} vs observed {observed}"
        );
    }
}

#[test]
fn scheduler_run_calibrates_and_sweeps_end_to_end() {
    // The full pipeline on a real (tiny) workload: one run profile per
    // thread count → calibration → measured backend → engine sweep.
    let data = DatasetSpec::new(600, 3, 3, 13).generate();
    let mut config = KMeansConfig::for_dataset(&data);
    config.threshold = -1.0; // fixed iteration count for stable ratios
    config.max_iters = 6;
    let workload = KMeans::new(config);
    let runs: Vec<MeasuredRun> = [1usize, 2, 4]
        .iter()
        .map(|&threads| workload.run(&data, threads).1.to_measured_run())
        .collect();
    let calibrated = CalibratedParams::fit("kmeans", &runs).unwrap();
    let app = calibrated.app_params();
    assert!(app.f > 0.5 && app.f < 1.0, "f = {}", app.f);
    assert!((app.split.fcon + app.split.fred - 1.0).abs() < 1e-9);

    let backend = MeasuredBackend::new(vec![calibrated]);
    let space = ScenarioSpace::new()
        .with_apps(backend.apps())
        .clear_designs()
        .add_symmetric_grid((0..32).map(|i| 1.0 + i as f64));
    let engine = Engine::new(2);
    let result = engine.sweep(&space, &backend, &SweepConfig::default());
    assert_eq!(result.records.len(), space.len());
    assert_eq!(result.stats.valid, space.len());
    assert!(result.records.iter().all(|r| r.speedup > 0.0));
}

/// The fingerprint of a calibration covers its name, fractions, `fored`,
/// growth shape and every serial multiplier bit for bit, so pinning it pins
/// the whole fold from phase records to the fitted parameters.
#[test]
fn calibration_fingerprints_are_pinned() {
    use merging_phases::par::ReductionStrategy;
    let fit = |name: &str, profiles: &[RunProfile]| {
        let runs: Vec<_> = profiles.iter().map(RunProfile::to_measured_run).collect();
        CalibratedParams::fit(name, &runs).expect("sweep calibrates").fingerprint()
    };
    let injected: Vec<RunProfile> = [1usize, 2, 4, 8, 16]
        .iter()
        .map(|&p| injected_profile("injected", p, 0.99, 0.6, 0.8))
        .collect();
    let simulated: Vec<RunProfile> = [1usize, 2, 4, 8, 16]
        .iter()
        .map(|&cores| {
            let program =
                kmeans_program(&WorkloadShape::kmeans_base(), ReductionStrategy::SerialLinear);
            simulate_profile(&program, &Machine::table1(cores))
        })
        .collect();
    assert_eq!(fit("injected", &injected), 12708202034689614534);
    assert_eq!(fit("kmeans-sim", &simulated), 10416462893556453624);
}
