//! Phase-program intermediate representation.
//!
//! A [`PhaseProgram`] describes one run of a workload as a sequence of phases
//! with *operation counts* rather than concrete code: how much parallel work,
//! how much serial work, how many reduction elements are merged and with which
//! strategy, and how much data is broadcast. The timing engine executes the
//! same program on differently shaped machines, which is exactly how the paper
//! uses its simulator (same application, 1–16 cores).

use std::borrow::Cow;

use serde::{Deserialize, Serialize};

use mp_par::ReductionStrategy;

/// The old name of [`ReductionStrategy`], kept only because the layered
/// benchmark (`benchmark/src/layers.rs`) imports it; it goes once that
/// benchmark names `ReductionStrategy`.
pub use mp_par::ReductionStrategy as ReductionKind;

/// One phase of a program.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum PhaseOp {
    /// Work executed by all parallel cores.
    ParallelWork {
        /// Label for the profile. `Cow` so the synthetic programs of the DSE
        /// hot path can use static names without per-program heap copies.
        label: Cow<'static, str>,
        /// Total compute operations across all data.
        ops: f64,
        /// Total data references across all data.
        memory_refs: f64,
        /// Size of the data touched, in bytes (determines cache behaviour).
        working_set_bytes: usize,
        /// Optional cap on how many cores can contribute (e.g. hop's tree
        /// construction kernel). `None` means perfectly parallel.
        max_parallelism: Option<usize>,
    },
    /// Work executed on a single core (the large core of an ACMP).
    SerialWork {
        /// Label for the profile.
        label: Cow<'static, str>,
        /// Compute operations.
        ops: f64,
        /// Data references.
        memory_refs: f64,
        /// Size of the data touched, in bytes.
        working_set_bytes: usize,
    },
    /// A merging phase over per-thread partial results.
    Reduction {
        /// Label for the profile.
        label: Cow<'static, str>,
        /// Number of reduction elements per partial (the paper's `x`).
        elements: usize,
        /// Compute operations per element-merge.
        ops_per_element: f64,
        /// Bytes occupied by one element in a partial (sizes the working set,
        /// which grows with the thread count).
        bytes_per_element: usize,
        /// How the merge is implemented.
        kind: ReductionStrategy,
    },
    /// Broadcasting `elements` merged values back to all cores over the NoC.
    Broadcast {
        /// Label for the profile.
        label: Cow<'static, str>,
        /// Number of elements broadcast.
        elements: usize,
    },
}

impl PhaseOp {
    /// The label of the phase.
    pub fn label(&self) -> &str {
        match self {
            PhaseOp::ParallelWork { label, .. }
            | PhaseOp::SerialWork { label, .. }
            | PhaseOp::Reduction { label, .. }
            | PhaseOp::Broadcast { label, .. } => label.as_ref(),
        }
    }
}

/// A named sequence of phases, optionally repeated (iterative workloads).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PhaseProgram {
    /// Workload name (appears in the resulting profiles).
    pub name: String,
    /// Phases executed once, before the iterative part (e.g. initialisation,
    /// tree construction).
    pub prologue: Vec<PhaseOp>,
    /// Phases executed `iterations` times.
    pub body: Vec<PhaseOp>,
    /// Number of body iterations.
    pub iterations: usize,
}

impl PhaseProgram {
    /// Create an empty program.
    pub fn new(name: impl Into<String>) -> Self {
        PhaseProgram { name: name.into(), prologue: Vec::new(), body: Vec::new(), iterations: 1 }
    }

    /// Append a prologue phase (builder-style).
    pub fn with_prologue(mut self, op: PhaseOp) -> Self {
        self.prologue.push(op);
        self
    }

    /// Append a body phase (builder-style).
    pub fn with_body(mut self, op: PhaseOp) -> Self {
        self.body.push(op);
        self
    }

    /// Set the iteration count (builder-style).
    pub fn with_iterations(mut self, iterations: usize) -> Self {
        self.iterations = iterations.max(1);
        self
    }

    /// All phases in execution order (prologue once, body repeated).
    pub fn unrolled(&self) -> impl Iterator<Item = &PhaseOp> {
        self.prologue
            .iter()
            .chain(std::iter::repeat_with(|| self.body.iter()).take(self.iterations).flatten())
    }

    /// Number of phase executions after unrolling.
    pub fn phase_count(&self) -> usize {
        self.prologue.len() + self.body.len() * self.iterations
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parallel(label: &'static str) -> PhaseOp {
        PhaseOp::ParallelWork {
            label: label.into(),
            ops: 1000.0,
            memory_refs: 100.0,
            working_set_bytes: 4096,
            max_parallelism: None,
        }
    }

    #[test]
    fn builder_assembles_program() {
        let p = PhaseProgram::new("kmeans")
            .with_prologue(parallel("init"))
            .with_body(parallel("assign"))
            .with_body(PhaseOp::Reduction {
                label: "merge".into(),
                elements: 80,
                ops_per_element: 1.0,
                bytes_per_element: 8,
                kind: ReductionStrategy::SerialLinear,
            })
            .with_iterations(10);
        assert_eq!(p.prologue.len(), 1);
        assert_eq!(p.body.len(), 2);
        assert_eq!(p.phase_count(), 1 + 2 * 10);
        assert_eq!(p.unrolled().count(), 21);
    }

    #[test]
    fn iterations_are_clamped_to_at_least_one() {
        let p = PhaseProgram::new("x").with_body(parallel("a")).with_iterations(0);
        assert_eq!(p.iterations, 1);
        assert_eq!(p.phase_count(), 1);
    }

    #[test]
    fn labels_are_accessible_for_all_variants() {
        let ops = [
            parallel("a"),
            PhaseOp::SerialWork {
                label: "b".into(),
                ops: 1.0,
                memory_refs: 0.0,
                working_set_bytes: 0,
            },
            PhaseOp::Reduction {
                label: "c".into(),
                elements: 1,
                ops_per_element: 1.0,
                bytes_per_element: 8,
                kind: ReductionStrategy::TreeLog,
            },
            PhaseOp::Broadcast { label: "d".into(), elements: 1 },
        ];
        let labels: Vec<&str> = ops.iter().map(|o| o.label()).collect();
        assert_eq!(labels, vec!["a", "b", "c", "d"]);
    }

    #[test]
    fn reduction_strategies_keep_their_names_and_serde_spelling() {
        // A serialised program spells its merge by variant name; these are
        // the spellings programs were written with.
        let expect = [
            ("serial-linear", "\"SerialLinear\""),
            ("tree-log", "\"TreeLog\""),
            ("parallel-privatized", "\"ParallelPrivatized\""),
        ];
        for (strategy, (name, json)) in ReductionStrategy::all().into_iter().zip(expect) {
            assert_eq!(strategy.name(), name);
            assert_eq!(serde_json::to_string(&strategy).unwrap(), json);
        }
    }

    #[test]
    fn program_serializes_roundtrip() {
        let p = PhaseProgram::new("x").with_body(parallel("a")).with_iterations(3);
        let json = serde_json::to_string(&p).unwrap();
        let back: PhaseProgram = serde_json::from_str(&json).unwrap();
        assert_eq!(p, back);
    }
}
