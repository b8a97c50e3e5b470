//! # sst-sim
//!
//! The top-level simulation driver for the `rock-sst` workspace:
//!
//! * [`CoreModel`] — one enum naming every machine in the study (in-order,
//!   scout, EA, SST variants, OoO variants) with a uniform constructor, so
//!   experiments sweep models by value.
//! * [`System`] — a single core + memory hierarchy with
//!   warm-up/measure accounting, and optional lock-step **co-simulation**
//!   against the functional interpreter ([`RetireChecker`]).
//! * [`CmpSystem`] — an `n`-core chip multiprocessor running a
//!   multiprogrammed mix over a shared L2, for the throughput experiments.
//! * [`area`] — the structure-count area/power proxy (experiment E9).
//! * [`report`] — markdown/CSV table emission for the experiment binaries.
//!
//! `System`, `CmpSystem` (batch and service runs) and [`run_sampled`] are
//! façades over one private cycle loop, `engine.rs`.
//!
//! ```
//! use sst_sim::{CoreModel, System};
//! use sst_workloads::{Scale, Workload};
//!
//! let w = Workload::by_name("gzip", Scale::Smoke, 1).unwrap();
//! let result = System::new(CoreModel::Sst, &w).run_checked(50_000_000).unwrap();
//! assert!(result.ipc() > 0.1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod area;
mod checker;
mod cmp;
mod engine;
mod models;
pub mod report;
pub mod sampling;
mod service;
mod snapshot;
mod system;

pub use checker::{CosimError, RetireChecker};
pub use cmp::{CmpResult, CmpSystem};
pub use models::CoreModel;
pub use sampling::{run_sampled, SampledResult, SamplingConfig};
pub use service::{Lane, Request, WorkSource};
pub use snapshot::{Snapshot, SnapshotHeader};
pub use system::{geomean, RunResult, System, SystemTrace};
