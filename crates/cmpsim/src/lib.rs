//! # mp-cmpsim — an abstract CMP/ACMP timing simulator
//!
//! The paper extracts its application parameters from the SESC cycle-accurate
//! simulator (Table I machine, up to 16 cores). Re-creating SESC is neither
//! possible nor necessary: the study only consumes *per-section execution
//! times* (parallel section, constant serial section, merging section). This
//! crate provides a phase-level timing simulator that produces exactly those
//! quantities for symmetric and asymmetric chip multiprocessors:
//!
//! * [`config`] — the Table I machine description (issue width, cache
//!   hierarchy, NoC latency, clock),
//! * [`corem`] — core timing: area-dependent performance (`perf(r)`, Pollack
//!   by default) applied to an instruction/operation stream,
//! * [`cache`] — a two-level cache cost model giving the average memory access
//!   latency for a phase from its working-set size and sharing behaviour,
//! * [`noc`] — a 2-D mesh interconnect cost model (XY routing, per-hop
//!   latency, link bandwidth) used by explicit communication phases,
//! * [`program`] — the phase-program IR: parallel work, serial work,
//!   reductions with a strategy, broadcasts and memory-touch phases,
//! * [`machine`] — symmetric/asymmetric machine assembly under a BCE budget,
//! * [`engine`] — the timing engine turning (program, machine) into per-phase
//!   cycle counts and an `mp-profile` [`mp_profile::RunProfile`],
//! * [`adapter`] — phase-program builders for the three clustering workloads,
//!   parameterised by the data-set shape (N, D, C), so the simulator's inputs
//!   are derived from the algorithms rather than hard-coded timings.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod adapter;
pub mod cache;
pub mod config;
pub mod corem;
pub mod engine;
pub mod machine;
pub mod noc;
pub mod program;

/// Commonly used items.
pub mod prelude {
    pub use crate::adapter::{fuzzy_program, hop_program, kmeans_program, WorkloadShape};
    pub use crate::cache::CacheModel;
    pub use crate::config::MachineConfig;
    pub use crate::corem::CoreModel;
    pub use crate::engine::{simulate, simulate_cycles, simulate_profile, SimReport};
    pub use crate::machine::{Machine, MachineKind};
    pub use crate::noc::NocModel;
    pub use crate::program::{PhaseOp, PhaseProgram};
}

pub use prelude::*;
