//! # mp-par — fork-join parallelism and reduction strategies
//!
//! A small, self-contained parallel runtime used by the merging-phases
//! workloads (`mp-workloads`) and the design-space sweep engine (`mp-dse`).
//! It deliberately avoids external parallel frameworks so that the *merging
//! phase* — the subject of the reproduced paper — is explicit and
//! instrumentable:
//!
//! * [`pool`] — the one fork-join, [`pool::Team`]: the caller plus a pool
//!   of persistent workers, which runs any number of logical threads — the
//!   statically chunked [`pool::Team::partials`] — on its members. Every
//!   sweep of the design-space engine, and every phase, tree build and merge
//!   of a workload run, forks on one.
//! * [`reduce`] — the three merge implementations analysed by the paper:
//!   serial linear accumulation, logarithmic tree combining and privatised
//!   parallel (element-partitioned) reduction, and [`ReductionStrategy`],
//!   the one name of each that the workloads run, the design-space sweeps
//!   vary and the timing simulator costs.
//!
//! The API is synchronous and panic-propagating: if a worker panics, the panic
//! is re-raised on the calling thread after all workers have stopped.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod pool;
pub mod reduce;

pub use pool::{Team, ThreadCtx, ThreadPool};
pub use reduce::{reduce_elementwise, ReductionStrategy};
