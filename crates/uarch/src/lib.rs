//! # sst-uarch
//!
//! Shared microarchitecture components for the `rock-sst` core models:
//!
//! * [`RegImage`] — a 64-entry register image with per-register **NT ("not
//!   there") bits**, writer sequence tags, and timing readiness. The NT bit
//!   is the heart of SST: it marks values that belong to deferred
//!   instructions, and the writer tag implements ROCK's merge rule when
//!   deferred results return.
//! * [`Checkpoint`] — a register-image + PC snapshot, the paper's
//!   alternative to register renaming and reorder buffers.
//! * [`DeferredQueue`] — the DQ: deferred instructions with their captured
//!   ready operands.
//! * [`StoreBuffer`] — the speculative store buffer with program-order
//!   forwarding, unknown-address tracking, and epoch-granular commit/squash.
//! * [`ExecLatency`] — functional-unit latencies shared by all cores.
//! * [`Frontend`] — fetch + decode with branch prediction, shared by all
//!   cores so frontend quality never confounds the core comparisons.
//!
//! These pieces are deliberately core-agnostic: `sst-core` (scout / EA /
//! SST), `sst-inorder`, and `sst-ooo` all build on them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod core_api;
mod dq;
mod exec;
mod frontend;
mod latency;
mod regimage;
mod stb;
mod taint;

pub use core_api::{drain_commits, Commit, Core};
pub use dq::{DeferredQueue, DqEntry};
pub use exec::{execute, extend_load, mem_addr, ExecOut};
pub use frontend::{FetchedInst, Frontend, FrontendConfig};
pub use latency::ExecLatency;
pub use regimage::{Checkpoint, RegImage, RegSlot};
pub use stb::{DrainedStore, ForwardResult, StoreBuffer, StoreEntry};
pub use taint::{LeakageRecord, LeakageSummary, SquashCounts, TaintState};

/// Monotone per-instruction sequence number (program order).
pub type Seq = u64;
