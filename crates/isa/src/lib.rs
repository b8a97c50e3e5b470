//! # sst-isa
//!
//! The instruction-set architecture used throughout the `rock-sst` workspace:
//! a 64-bit RISC ISA that stands in for SPARC V9 in our reproduction of
//! *Simultaneous Speculative Threading* (Chaudhry et al., ISCA 2009).
//!
//! SST is an ISA-agnostic pipeline organization; what the simulator needs
//! from the ISA is an explicit register dataflow (so the hardware can track
//! "not there" dependences), loads/stores, and branches. This crate provides:
//!
//! * [`Inst`] — the decoded instruction form used by every pipeline model,
//!   with dependence-query helpers ([`Inst::dest`], [`Inst::sources`], ...).
//! * [`encode`]/[`decode`] — a fixed 32-bit binary encoding, so programs are
//!   real byte images that instruction caches can fetch.
//! * [`Asm`] — a programmatic assembler/builder with labels, used by the
//!   workload generators.
//! * [`assemble`] — a two-pass text assembler with the usual directives and
//!   pseudo-instructions, used by examples and tests.
//! * [`SparseMem`] — a paged sparse byte-addressable memory image.
//! * [`Interp`] — a functional reference interpreter. Every timing core in
//!   the workspace co-simulates against it at retirement, which is the
//!   primary correctness oracle for the speculation machinery.
//!
//! ## Quick example
//!
//! ```
//! use sst_isa::{assemble, Interp, StopReason};
//!
//! let program = assemble(
//!     r#"
//!     .text
//!     main:
//!         li   x5, 10        # loop count
//!         li   x6, 0         # accumulator
//!     loop:
//!         add  x6, x6, x5
//!         addi x5, x5, -1
//!         bne  x5, x0, loop
//!         halt
//!     "#,
//! )
//! .unwrap();
//!
//! let mut interp = Interp::new(&program);
//! let outcome = interp.run(1_000).unwrap();
//! assert_eq!(outcome.stop, StopReason::Halt);
//! assert_eq!(interp.state().read(sst_isa::Reg::x(6)), 55);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod asm;
mod builder;
mod encode;
mod inst;
mod interp;
mod program;
mod reg;
mod snap;
mod sparse_mem;

pub use asm::{assemble, AsmError};
pub use builder::{Asm, BuildError, Label, Region};
pub use encode::{decode, encode, DecodeError, EncodeError};
pub use inst::{disasm, AluOp, BranchCond, FpuOp, Inst, InstClass, MemWidth};
pub use interp::{ArchState, Hooks, Interp, MemEffect, RunOutcome, StepEvent, StopReason, Trap};
pub use program::{Program, DEFAULT_DATA_BASE, DEFAULT_TEXT_BASE};
pub use reg::Reg;
pub use snap::{Snap, SnapError, SnapReader, SnapState, SnapWriter, SNAPSHOT_VERSION};
pub use sparse_mem::SparseMem;

/// Number of architectural registers (32 integer + 32 floating point,
/// addressed through one unified 6-bit index as the checkpoint hardware
/// sees them).
pub const NUM_REGS: usize = 64;

/// Size of one encoded instruction in bytes.
pub const INST_BYTES: u64 = 4;
