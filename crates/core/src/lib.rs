//! # sst-core
//!
//! The paper's contribution: a cycle-level model of **Simultaneous
//! Speculative Threading** (Chaudhry et al., ISCA 2009), the pipeline
//! organization of Sun's ROCK processor.
//!
//! One configurable core expresses the whole design space the paper
//! evaluates:
//!
//! * [`SstConfig::in_order`] — the **in-order, stall-on-use baseline**:
//!   no checkpoint, DQ or store buffer, so a miss never defers and its
//!   first consumer stalls the pipeline until the data arrives.
//! * [`SstConfig::scout`] — **hardware scout / runahead**: on a deferrable
//!   load miss, checkpoint and keep executing purely for prefetching and
//!   predictor training; all results are discarded and execution restarts
//!   at the checkpoint when the miss returns.
//! * [`SstConfig::execute_ahead`] — **EA**: one checkpoint. Independent
//!   instructions retire speculatively; miss-dependents park in the
//!   deferred queue (DQ). When the miss returns, the pipeline *suspends the
//!   ahead thread* and replays the DQ.
//! * [`SstConfig::sst`] — **SST**: two (or more) checkpoints. When the miss
//!   returns, a second checkpoint closes the epoch, and the deferred thread
//!   replays it *simultaneously* with the still-advancing ahead thread,
//!   the two sharing the issue width of one in-order pipeline.
//!
//! The machinery matches the paper's structural claims: no rename tables,
//! no reorder buffer, no disambiguation CAM, no issue window — just
//! checkpoints, NT bits, the DQ, and the speculative store buffer (all from
//! `sst-uarch`).
//!
//! ## Model summary
//!
//! * **Defer rule**: an instruction with a not-there (NT) source defers,
//!   capturing its available operands and naming the deferred producer of
//!   each missing one. A load whose memory latency exceeds
//!   [`SstConfig::defer_threshold`] defers and marks its destination NT
//!   (taking the first checkpoint if none is active).
//! * **Memory order without a disambiguation buffer**: speculative stores
//!   live in the store buffer; an ahead load forwards from it, and defers
//!   whenever an older store's address or data is unknown or only
//!   partially overlaps.
//! * **Replay**: the deferred strand scans the oldest epoch's DQ entries in
//!   order, executing those whose inputs have arrived (multi-pass; a
//!   replayed load that misses again simply stays deferred). Results merge
//!   into the speculative register state under ROCK's writer-tag rule, and
//!   into every younger checkpoint image.
//! * **Failure**: a deferred branch (or indirect jump) whose resolved
//!   outcome disagrees with the fetch-time prediction rolls the core back
//!   to the epoch's checkpoint. DQ or store-buffer pressure never fails —
//!   the ahead thread stalls instead, as in ROCK.
//! * **Commit**: epochs commit in order once their DQ entries drain;
//!   buffered stores are released to the memory system and the epoch's
//!   instructions are reported (in program order) for co-simulation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod machine;
mod stats;

pub use config::SstConfig;
pub use machine::SstCore;
pub use stats::SstStats;
