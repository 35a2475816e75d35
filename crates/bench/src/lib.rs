//! # mp-bench — experiment harness for every table and figure of the paper
//!
//! Each module of [`figures`] regenerates one table or figure of
//! *Implications of Merging Phases on Scalability of Multi-core Architectures*
//! (ICPP 2011) and returns its data as labelled rows; the `repro` binary
//! prints them (`cargo run -p mp-bench --bin repro -- all`), and the Criterion
//! benchmarks under `benches/` time the underlying workloads and sweeps.
//!
//! | command          | reproduces |
//! |------------------|------------|
//! | `repro table1`   | Table I — simulated machine configuration |
//! | `repro fig2a`    | Figure 2(a) — application scalability, 1–16 cores |
//! | `repro fig2b`    | Figure 2(b) — serial-section growth (simulation) |
//! | `repro fig2c`    | Figure 2(c) — serial-section growth (real threads) |
//! | `repro fig2d`    | Figure 2(d) — model accuracy vs simulation |
//! | `repro table2`   | Table II — extracted application parameters |
//! | `repro fig3`     | Figure 3 — scalability prediction to 256 cores |
//! | `repro table3`   | Table III — application classes |
//! | `repro fig4`     | Figure 4 — symmetric CMP design space |
//! | `repro fig5`     | Figure 5 — asymmetric CMP design space |
//! | `repro fig6`     | Figure 6 — reduction-fraction split |
//! | `repro fig7`     | Figure 7 — communication-aware model |
//! | `repro table4`   | Table IV — data-set sensitivity |

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod alloc_track;
pub mod calibrate_cmd;
pub mod cli;
pub mod dse_cmd;
pub mod figures;
pub mod job_cmd;
pub mod load_cmd;
pub mod report;
pub mod serve_cmd;

pub use figures::*;
