//! # sst-traffic
//!
//! Open-loop request generation, queueing, and tail-latency measurement
//! over the CMP — the paper's commercial workloads are *services*, and a
//! service's figure of merit is tail latency at an offered load, not the
//! IPC of an endless loop. This crate provides experiment family **E14**
//! with the three layers that measurement needs:
//!
//! 1. [`arrival_cycles`] — a deterministic Poisson arrival process
//!    (inverse-CDF exponential sampling in pure integer math), so the
//!    request trace is byte-identical for a given seed on every host and
//!    at every `--threads`/`--jobs` setting.
//! 2. [`TrafficSpec`]/[`run_traffic`] — each request is a bounded slice
//!    (N transactions) of a commercial server kernel, dispatched through
//!    a bounded admission queue onto the least-loaded per-core lane
//!    ([`Policy::LeastLoaded`]), with explicit
//!    shed accounting on overflow; cores serve via the `sst-sim` service
//!    driver.
//! 3. [`LatencyHistogram`] — HDR-style log-bucketed latency histogram
//!    with integer-only bucket math, exact merge, and permille
//!    percentile extraction (p50/p99/p99.9).
//!
//! ```
//! use sst_traffic::{Policy, TrafficSpec, run_traffic};
//! use sst_sim::CoreModel;
//! use sst_workloads::Scale;
//!
//! let spec = TrafficSpec {
//!     model: CoreModel::Sst,
//!     workload: "oltp".into(),
//!     cores: 2,
//!     load_permille: 100,
//!     txns_per_request: 2,
//!     requests: 32,
//!     warmup: 8,
//!     admission_cap: 32,
//!     lane_cap: 4,
//!     quantum: 256,
//!     policy: Policy::LeastLoaded,
//! };
//! let r = run_traffic(&spec, Scale::Smoke, 1, 1, 1_000_000_000);
//! assert_eq!(r.completed + r.shed, r.offered);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arrival;
mod hist;
mod source;

pub use arrival::arrival_cycles;
pub use hist::LatencyHistogram;
pub use source::{
    run_traffic, run_traffic_full, Policy, ReqRecord, TrafficResult, TrafficRun, TrafficSpec,
};
