//! # sst-mem
//!
//! Cycle-level memory hierarchy for the `rock-sst` workspace: per-core
//! split L1 instruction/data caches, a shared banked L2, MSHRs that bound
//! miss-level parallelism, a DRAM model with bank and row-buffer effects,
//! and an optional stride prefetcher.
//!
//! ## Modeling approach
//!
//! The hierarchy separates **data** from **timing**:
//!
//! * Data lives in one [`sst_isa::SparseMem`] backing store and is read and
//!   written functionally ([`MemSystem::read`], [`MemSystem::write`]); the
//!   cache models carry tags only.
//! * Timing is computed at issue: [`MemSystem::access`] walks the hierarchy
//!   once and returns the absolute [`Cycle`] at which the access completes,
//!   accounting for hit level, MSHR availability (which bounds how many
//!   misses can overlap — the crucial resource for the SST study),
//!   shared-L2 port contention, DRAM bank conflicts, and row-buffer
//!   locality.
//!
//! This "resolve-at-issue" style keeps every core model simple (no
//! callback plumbing) while preserving the effects the ISCA 2009 evaluation
//! depends on: miss rates, overlap limits, and latency accumulation.
//!
//! Coherence is intentionally absent: the reproduced experiments run
//! single-threaded programs (or multiprogrammed mixes with disjoint address
//! spaces), matching the paper's per-thread performance methodology.
//!
//! ## Ports and deterministic parallelism
//!
//! The system splits along the chip's ownership boundary: each core owns a
//! private [`MemPort`] (L1s, L1 MSHRs, prefetcher, its slice of the backing
//! store, per-core counters) and reaches the shared L2/DRAM residue through
//! a [`MemBus`]. Serial drivers use [`MemSystem::bus`] (a plain reborrow);
//! parallel drivers call [`MemSystem::into_parallel`] and hand each worker
//! thread its ports plus a gated bus from [`ParallelMem::bus`], which
//! blocks each shared-state escalation until the core's deterministic turn
//! — so parallel runs are byte-identical to serial ones. See
//! [`ParallelMem`] for the turn protocol.
//!
//! ```
//! use sst_mem::{MemConfig, MemSystem, AccessKind, HitLevel};
//!
//! let mut ms = MemSystem::new(&MemConfig::default(), 1);
//! ms.write(0x1000, 8, 42); // functional write
//! let first = ms.access(0, 0, AccessKind::Load, 0x1000); // cold miss
//! assert_eq!(first.level, HitLevel::Mem);
//! let again = ms.access(first.ready_at, 0, AccessKind::Load, 0x1000);
//! assert_eq!(again.level, HitLevel::L1); // now cached
//! assert_eq!(ms.read(0x1000, 8), 42);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod config;
mod dram;
mod mshr;
mod parallel;
mod prefetch;
mod stats;
mod system;

pub use cache::TagArray;
pub use config::{CacheConfig, DramConfig, MemConfig, StrideConfig};
pub use dram::Dram;
pub use mshr::MshrFile;
pub use parallel::ParallelMem;
pub use prefetch::StridePrefetcher;
pub use stats::{CacheStats, MemStats};
pub use system::{AccessKind, AccessOutcome, HitLevel, MemBus, MemPort, MemSystem};

/// Simulation time, in core clock cycles.
pub type Cycle = u64;
