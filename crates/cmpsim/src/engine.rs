//! The timing engine: executes a [`PhaseProgram`] on a [`Machine`] and
//! produces per-phase cycle counts.
//!
//! Timing rules (all times in cycles):
//!
//! * **ParallelWork** — compute time is `ops / (ops_per_cycle ·
//!   parallel_throughput)`, where the throughput honours the phase's
//!   `max_parallelism` cap; memory time is the per-core share of the
//!   references times the average access latency of the phase's working set.
//! * **SerialWork** — runs on the machine's serial core at `perf(r_serial)`.
//! * **Reduction** — depends on the merge implementation:
//!   * *serial linear*: the serial core touches every element of every
//!     partial (`threads · elements` element-merges), reading data written by
//!     other cores (coherence penalty); the working set is all partials, so it
//!     grows with the thread count — this is what makes hop's merge
//!     super-linear once the partial tables outgrow the L1.
//!   * *tree log*: `ceil(log2 threads) · elements` element-merges on the
//!     critical path, plus the same per-level coherence traffic.
//!   * *parallel privatised*: each core merges `elements / threads` of the
//!     element space across all partials (`≈ elements` element-merges of
//!     critical path, independent of the thread count) and the partials are
//!     exchanged over the NoC (`2·(threads − 1)·elements` element-messages).
//! * **Broadcast** — `(threads − 1) · elements` element-messages over the NoC.
//!
//! The per-phase cycles are tagged with `mp_profile::PhaseKind`s so a
//! simulated run can be analysed by exactly the same extraction code as a real
//! one.

use std::borrow::Cow;

use serde::{Deserialize, Serialize};

use mp_profile::{PhaseKind, RunProfile};

use crate::cache::CacheModel;
use crate::machine::Machine;
use crate::program::{PhaseOp, PhaseProgram, ReductionKind};

/// Cycle count of one executed phase.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimPhase {
    /// Phase classification (parallel / serial / reduction / communication).
    pub kind: PhaseKind,
    /// Label copied from the program (borrowed when the program's label is a
    /// static string, so report construction does not copy it to the heap).
    pub label: Cow<'static, str>,
    /// Simulated duration in cycles.
    pub cycles: f64,
}

/// The result of simulating a program on a machine.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimReport {
    /// Program name.
    pub name: String,
    /// Number of cores (merging threads) of the simulated machine.
    pub threads: usize,
    /// Executed phases in order.
    pub phases: Vec<SimPhase>,
}

impl SimReport {
    /// Total cycles over all phases.
    pub fn total_cycles(&self) -> f64 {
        self.phases.iter().map(|p| p.cycles).sum()
    }

    /// Total cycles of phases of one kind.
    pub fn cycles_in(&self, kind: PhaseKind) -> f64 {
        self.phases.iter().filter(|p| p.kind == kind).map(|p| p.cycles).sum()
    }

    /// Cycles spent in the serial section (constant serial + reduction +
    /// communication).
    pub fn serial_cycles(&self) -> f64 {
        self.phases.iter().filter(|p| p.kind.is_serial()).map(|p| p.cycles).sum()
    }

    /// Convert the report into an `mp-profile` [`RunProfile`] using the
    /// machine clock of `machine`. Borrowed phase labels are passed through
    /// without a per-record heap copy.
    pub fn to_profile(&self, machine: &Machine) -> RunProfile {
        let mut profile = RunProfile::new(self.name.clone(), self.threads);
        for p in &self.phases {
            profile.push(mp_profile::PhaseRecord::new(
                p.kind,
                p.label.clone(),
                machine.config().cycles_to_seconds(p.cycles),
                self.threads,
            ));
        }
        profile
    }
}

/// How the label of an emitted phase derives from the program's label.
enum PhaseLabel<'a> {
    /// The program label itself.
    Plain(&'a Cow<'static, str>),
    /// The program label suffixed with `-exchange` (the privatised
    /// reduction's NoC phase).
    Exchange(&'a Cow<'static, str>),
}

impl PhaseLabel<'_> {
    fn materialise(&self) -> Cow<'static, str> {
        match self {
            PhaseLabel::Plain(label) => (*label).clone(),
            PhaseLabel::Exchange(label) => Cow::Owned(format!("{label}-exchange")),
        }
    }
}

/// The timing walk shared by [`simulate`] and [`simulate_cycles`]: executes
/// `program` on `machine` and emits every phase, in order, to `emit`. All of
/// the timing arithmetic lives here exactly once, so the report-building and
/// the allocation-free paths cannot drift apart.
fn walk_phases(
    program: &PhaseProgram,
    machine: &Machine,
    mut emit: impl FnMut(PhaseKind, PhaseLabel<'_>, f64),
) {
    let cache = CacheModel::new(*machine.config());
    let noc = machine.noc();
    let threads = machine.threads();
    let config = machine.config();

    for op in program.unrolled() {
        match op {
            PhaseOp::ParallelWork {
                label,
                ops,
                memory_refs,
                working_set_bytes,
                max_parallelism,
            } => {
                let throughput = machine.parallel_throughput(*max_parallelism);
                let compute = ops / (config.ops_per_cycle * throughput);
                let effective_workers =
                    (threads.min(max_parallelism.unwrap_or(usize::MAX)).max(1)) as f64;
                let memory =
                    cache.memory_cycles(memory_refs / effective_workers, *working_set_bytes, false);
                emit(PhaseKind::Parallel, PhaseLabel::Plain(label), compute + memory);
            }
            PhaseOp::SerialWork { label, ops, memory_refs, working_set_bytes } => {
                let core = machine.serial_core();
                let compute = core.compute_cycles(*ops, config);
                let memory = cache.memory_cycles(*memory_refs, *working_set_bytes, false);
                emit(PhaseKind::SerialConstant, PhaseLabel::Plain(label), compute + memory);
            }
            PhaseOp::Reduction { label, elements, ops_per_element, bytes_per_element, kind } => {
                let x = *elements as f64;
                let serial_core = machine.serial_core();
                let parallel_core = machine.parallel_core();
                // All partials together form the merge working set.
                let partials_bytes = threads * elements * bytes_per_element;
                match kind {
                    ReductionKind::SerialLinear => {
                        // The master walks every partial: threads·x merges.
                        let merges = threads as f64 * x;
                        let compute = serial_core.compute_cycles(merges * ops_per_element, config);
                        let memory = cache.memory_cycles(merges, partials_bytes, threads > 1);
                        emit(PhaseKind::Reduction, PhaseLabel::Plain(label), compute + memory);
                    }
                    ReductionKind::TreeLog => {
                        // Critical path: one merge of x elements per tree level
                        // (plus the initial local copy).
                        let levels = (threads as f64).log2().ceil().max(0.0) + 1.0;
                        let merges = levels * x;
                        let compute = serial_core.compute_cycles(merges * ops_per_element, config);
                        let memory = cache.memory_cycles(
                            merges,
                            (2 * elements * bytes_per_element).max(1),
                            threads > 1,
                        );
                        emit(PhaseKind::Reduction, PhaseLabel::Plain(label), compute + memory);
                    }
                    ReductionKind::ParallelPrivatized => {
                        // Each core merges its share of the element space
                        // across all partials: threads·x/threads = x merges of
                        // critical path on a parallel core.
                        let merges = x.max(1.0);
                        let compute =
                            parallel_core.compute_cycles(merges * ops_per_element, config);
                        let memory = cache.memory_cycles(merges, partials_bytes, threads > 1);
                        emit(PhaseKind::Reduction, PhaseLabel::Plain(label), compute + memory);
                        // The all-to-all exchange of partials over the mesh.
                        let comm = noc.reduction_exchange_cycles(x, threads);
                        if comm > 0.0 {
                            emit(PhaseKind::Communication, PhaseLabel::Exchange(label), comm);
                        }
                    }
                }
            }
            PhaseOp::Broadcast { label, elements } => {
                let messages = (threads.saturating_sub(1) * elements) as f64;
                let cycles = noc.transfer_cycles(messages);
                emit(PhaseKind::Communication, PhaseLabel::Plain(label), cycles);
            }
        }
    }
}

/// Simulate `program` on `machine`, returning per-phase cycles.
pub fn simulate(program: &PhaseProgram, machine: &Machine) -> SimReport {
    let mut phases = Vec::with_capacity(program.phase_count());
    walk_phases(program, machine, |kind, label, cycles| {
        phases.push(SimPhase { kind, label: label.materialise(), cycles });
    });
    SimReport { name: program.name.clone(), threads: machine.threads(), phases }
}

/// Time `program` on `machine` without materialising a report: no `SimPhase`
/// vector, no label strings, no heap traffic at all — just the summed cycle
/// count, bit-identical to `simulate(program, machine).total_cycles()`. This
/// is the design-space-exploration kernel: the DSE sweep calls it once per
/// simulated machine, millions of times per sweep.
pub fn simulate_cycles(program: &PhaseProgram, machine: &Machine) -> f64 {
    let mut total = 0.0;
    walk_phases(program, machine, |_, _, cycles| total += cycles);
    total
}

/// Simulate and directly return an `mp-profile` profile (cycles converted to
/// seconds at the machine clock).
pub fn simulate_profile(program: &PhaseProgram, machine: &Machine) -> RunProfile {
    simulate(program, machine).to_profile(machine)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MachineConfig;

    fn simple_program(kind: ReductionKind) -> PhaseProgram {
        PhaseProgram::new("test")
            .with_body(PhaseOp::ParallelWork {
                label: "work".into(),
                ops: 1_000_000.0,
                memory_refs: 10_000.0,
                working_set_bytes: 32 * 1024,
                max_parallelism: None,
            })
            .with_body(PhaseOp::Reduction {
                label: "merge".into(),
                elements: 100,
                ops_per_element: 1.0,
                bytes_per_element: 8,
                kind,
            })
            .with_body(PhaseOp::SerialWork {
                label: "check".into(),
                ops: 200.0,
                memory_refs: 50.0,
                working_set_bytes: 1024,
            })
            .with_iterations(5)
    }

    #[test]
    fn parallel_phase_scales_with_cores() {
        let program = simple_program(ReductionKind::SerialLinear);
        let t1 = simulate(&program, &Machine::table1(1));
        let t16 = simulate(&program, &Machine::table1(16));
        let p1 = t1.cycles_in(PhaseKind::Parallel);
        let p16 = t16.cycles_in(PhaseKind::Parallel);
        assert!(p1 / p16 > 12.0, "parallel section should scale, got {}", p1 / p16);
    }

    #[test]
    fn serial_phase_does_not_scale() {
        let program = simple_program(ReductionKind::SerialLinear);
        let t1 = simulate(&program, &Machine::table1(1));
        let t16 = simulate(&program, &Machine::table1(16));
        let s1 = t1.cycles_in(PhaseKind::SerialConstant);
        let s16 = t16.cycles_in(PhaseKind::SerialConstant);
        assert!((s1 - s16).abs() / s1 < 1e-9);
    }

    #[test]
    fn linear_reduction_grows_with_thread_count() {
        let program = simple_program(ReductionKind::SerialLinear);
        let r: Vec<f64> = [1usize, 2, 4, 8, 16]
            .iter()
            .map(|&c| simulate(&program, &Machine::table1(c)).cycles_in(PhaseKind::Reduction))
            .collect();
        for w in r.windows(2) {
            assert!(w[1] > w[0]);
        }
        // Roughly linear: 16-core cost should be an order of magnitude above
        // the single-core cost.
        assert!(r[4] / r[0] > 8.0, "got {}", r[4] / r[0]);
    }

    #[test]
    fn tree_reduction_grows_logarithmically() {
        let tree = simple_program(ReductionKind::TreeLog);
        let linear = simple_program(ReductionKind::SerialLinear);
        let at = |p: &PhaseProgram, c: usize| {
            simulate(p, &Machine::table1(c)).cycles_in(PhaseKind::Reduction)
        };
        // Tree grows much more slowly than linear.
        let tree_growth = at(&tree, 16) / at(&tree, 1);
        let linear_growth = at(&linear, 16) / at(&linear, 1);
        assert!(tree_growth < linear_growth / 2.0, "tree {tree_growth} vs linear {linear_growth}");
        assert!(tree_growth < 6.0, "got {tree_growth}");
    }

    #[test]
    fn privatized_reduction_shifts_cost_to_communication() {
        let program = simple_program(ReductionKind::ParallelPrivatized);
        let report = simulate(&program, &Machine::table1(16));
        assert!(report.cycles_in(PhaseKind::Communication) > 0.0);
        // Its compute part grows far more slowly than a serial linear merge
        // (which would be ~16x at 16 threads).
        let r1 = simulate(&program, &Machine::table1(1)).cycles_in(PhaseKind::Reduction);
        let r16 = report.cycles_in(PhaseKind::Reduction);
        assert!(r16 / r1 < 6.0, "privatized compute should not grow much, got {}", r16 / r1);
    }

    #[test]
    fn max_parallelism_caps_scaling() {
        let program = PhaseProgram::new("capped").with_body(PhaseOp::ParallelWork {
            label: "tree-build".into(),
            ops: 1_000_000.0,
            memory_refs: 0.0,
            working_set_bytes: 1024,
            max_parallelism: Some(4),
        });
        let t4 = simulate(&program, &Machine::table1(4)).total_cycles();
        let t16 = simulate(&program, &Machine::table1(16)).total_cycles();
        assert!((t4 - t16).abs() / t4 < 1e-9, "capped phase must not speed up past the cap");
    }

    #[test]
    fn broadcast_costs_nothing_on_a_single_core() {
        let program = PhaseProgram::new("bc")
            .with_body(PhaseOp::Broadcast { label: "bcast".into(), elements: 100 });
        assert_eq!(simulate(&program, &Machine::table1(1)).total_cycles(), 0.0);
        assert!(simulate(&program, &Machine::table1(16)).total_cycles() > 0.0);
    }

    #[test]
    fn asymmetric_machine_accelerates_serial_phases() {
        let program = simple_program(ReductionKind::SerialLinear);
        let sym =
            simulate(&program, &Machine::symmetric(16, 1.0, MachineConfig::table1_baseline()));
        let asym = simulate(
            &program,
            &Machine::asymmetric(12, 1.0, 4.0, MachineConfig::table1_baseline()),
        );
        // The ACMP's large core (perf 2) halves the serial-constant compute.
        assert!(
            asym.cycles_in(PhaseKind::SerialConstant) < sym.cycles_in(PhaseKind::SerialConstant)
        );
    }

    #[test]
    fn report_converts_to_profile() {
        let program = simple_program(ReductionKind::SerialLinear);
        let machine = Machine::table1(8);
        let report = simulate(&program, &machine);
        let profile = report.to_profile(&machine);
        assert_eq!(profile.threads, 8);
        assert_eq!(profile.records.len(), report.phases.len());
        let expected_seconds = machine.config().cycles_to_seconds(report.total_cycles());
        let seconds: f64 = profile.records.iter().map(|r| r.seconds).sum();
        assert!((seconds - expected_seconds).abs() < 1e-12);
    }

    #[test]
    fn cycles_kernel_matches_report_total_bitwise() {
        for kind in
            [ReductionKind::SerialLinear, ReductionKind::TreeLog, ReductionKind::ParallelPrivatized]
        {
            let program = simple_program(kind);
            for cores in [1usize, 2, 7, 16, 64] {
                let machine = Machine::table1(cores);
                let report = simulate(&program, &machine).total_cycles();
                let kernel = simulate_cycles(&program, &machine);
                assert_eq!(report.to_bits(), kernel.to_bits(), "{kind:?} cores={cores}");
            }
        }
    }

    #[test]
    fn static_labels_reach_the_profile_without_copies() {
        let program = simple_program(ReductionKind::SerialLinear);
        let machine = Machine::table1(4);
        let report = simulate(&program, &machine);
        // Program labels are static strings, so the report (and the profile
        // derived from it) must carry borrowed labels.
        assert!(report.phases.iter().all(|p| matches!(p.label, std::borrow::Cow::Borrowed(_))));
        let profile = report.to_profile(&machine);
        assert!(profile.records.iter().all(|r| matches!(r.label, std::borrow::Cow::Borrowed(_))));
    }

    #[test]
    fn speedup_saturates_due_to_reduction_overhead() {
        // The qualitative Figure 2/3 behaviour: with a linear merge the
        // simulated speedup at high core counts falls below the ideal.
        let program = simple_program(ReductionKind::SerialLinear);
        let base = simulate(&program, &Machine::table1(1)).total_cycles();
        let at64 = simulate(&program, &Machine::table1(64)).total_cycles();
        let speedup = base / at64;
        assert!(speedup > 10.0);
        assert!(
            speedup < 60.0,
            "reduction overhead should hold speedup below ideal, got {speedup}"
        );
    }
}
