//! # mp-par — fork-join parallelism and reduction strategies
//!
//! A small, self-contained parallel runtime used by the merging-phases
//! workloads (`mp-workloads`) and the design-space sweep engine (`mp-dse`).
//! It deliberately avoids external parallel frameworks so that the *merging
//! phase* — the subject of the reproduced paper — is explicit and
//! instrumentable:
//!
//! * [`pool`] — scoped fork-join execution: [`pool::run_scoped`] and the
//!   statically chunked [`pool::parallel_for`] / [`pool::parallel_partials`]
//!   on per-call threads, and [`pool::ThreadPool::run_scoped`], the same
//!   contract on persistent workers (what every sweep forks on).
//! * [`reduce`] — the three merge implementations analysed by the paper:
//!   serial linear accumulation, logarithmic tree combining and privatised
//!   parallel (element-partitioned) reduction, together with operation
//!   counters that feed the timing simulator.
//!
//! The API is synchronous and panic-propagating: if a worker panics, the panic
//! is re-raised on the calling thread after all workers have stopped.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod pool;
pub mod reduce;

pub use pool::{parallel_for, parallel_partials, run_scoped, ThreadCtx, ThreadPool};
pub use reduce::{
    reduce_elementwise, reduce_partials, ReduceOp, ReduceStats, ReductionStrategy, SumOp,
};
