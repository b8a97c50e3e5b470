//! Shared execute-stage semantics.
//!
//! Every timing core computes architectural results with these helpers so
//! that cores can never disagree with the functional interpreter about
//! arithmetic, extension, or control-flow semantics (the underlying `eval`
//! functions live in `sst-isa` and are shared with the interpreter).

use sst_isa::{Inst, MemWidth, INST_BYTES};

/// Sign/zero-extends a raw little-endian loaded value.
#[inline]
pub fn extend_load(width: MemWidth, signed: bool, raw: u64) -> u64 {
    let bytes = width.bytes();
    if signed && bytes < 8 {
        let shift = 64 - bytes * 8;
        (((raw << shift) as i64) >> shift) as u64
    } else if bytes < 8 {
        raw & ((1u64 << (bytes * 8)) - 1)
    } else {
        raw
    }
}

/// Result of executing a (non-memory-data) instruction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExecOut {
    /// Register result (link value for jumps, ALU/FPU result). `None` for
    /// stores, branches, prefetch, halt.
    pub value: Option<u64>,
    /// Resolved next PC.
    pub next_pc: u64,
    /// For conditional branches: taken?
    pub taken: bool,
}

/// Executes a non-load instruction given its source values.
///
/// * ALU/FPU: `value` is the result.
/// * Branches: `taken`/`next_pc` resolve control flow.
/// * `jal`/`jalr`: `value` is the link, `next_pc` the target.
/// * Stores/prefetch: address computation is the caller's job
///   ([`mem_addr`]); `value` is `None`.
/// * Loads are *not* handled here — callers read memory and use
///   [`extend_load`].
///
/// # Panics
///
/// Panics if called with a load.
#[inline]
pub fn execute(inst: Inst, s1: u64, s2: u64, pc: u64) -> ExecOut {
    let fall = pc.wrapping_add(INST_BYTES);
    match inst {
        Inst::Alu { op, .. } => ExecOut {
            value: Some(op.eval(s1, s2)),
            next_pc: fall,
            taken: false,
        },
        Inst::AluImm { op, imm, .. } => ExecOut {
            value: Some(op.eval(s1, imm as u64)),
            next_pc: fall,
            taken: false,
        },
        Inst::Lui { imm, .. } => ExecOut {
            value: Some((imm << 12) as u64),
            next_pc: fall,
            taken: false,
        },
        Inst::Branch { cond, offset, .. } => {
            let taken = cond.eval(s1, s2);
            ExecOut {
                value: None,
                next_pc: if taken {
                    pc.wrapping_add_signed(offset * 4)
                } else {
                    fall
                },
                taken,
            }
        }
        Inst::Jal { offset, .. } => ExecOut {
            value: Some(fall),
            next_pc: pc.wrapping_add_signed(offset * 4),
            taken: true,
        },
        Inst::Jalr { offset, .. } => ExecOut {
            value: Some(fall),
            next_pc: s1.wrapping_add_signed(offset) & !3u64,
            taken: true,
        },
        Inst::Fpu { op, .. } => ExecOut {
            value: Some(op.eval(s1, s2)),
            next_pc: fall,
            taken: false,
        },
        Inst::Store { .. } | Inst::Prefetch { .. } => ExecOut {
            value: None,
            next_pc: fall,
            taken: false,
        },
        Inst::Halt => ExecOut {
            value: None,
            next_pc: pc,
            taken: false,
        },
        Inst::Load { .. } => panic!("loads are executed by the memory path"),
    }
}

/// Effective address of a memory instruction, given its base value.
///
/// # Panics
///
/// Panics for non-memory instructions.
#[inline]
pub fn mem_addr(inst: Inst, base_val: u64) -> u64 {
    match inst {
        Inst::Load { offset, .. } | Inst::Store { offset, .. } | Inst::Prefetch { offset, .. } => {
            base_val.wrapping_add_signed(offset)
        }
        other => panic!("{other:?} is not a memory instruction"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sst_isa::{AluOp, BranchCond, Reg};

    #[test]
    fn extension_matches_interp_semantics() {
        assert_eq!(extend_load(MemWidth::B1, true, 0xff), u64::MAX);
        assert_eq!(extend_load(MemWidth::B1, false, 0xff), 0xff);
        assert_eq!(
            extend_load(MemWidth::B4, true, 0x8000_0000),
            0xffff_ffff_8000_0000
        );
        assert_eq!(extend_load(MemWidth::B4, false, 0x8000_0000), 0x8000_0000);
        assert_eq!(extend_load(MemWidth::B8, true, u64::MAX), u64::MAX);
    }

    #[test]
    fn branch_resolution() {
        let b = Inst::Branch {
            cond: BranchCond::Lt,
            rs1: Reg::x(1),
            rs2: Reg::x(2),
            offset: -2,
        };
        let taken = execute(b, 1, 5, 0x100);
        assert!(taken.taken);
        assert_eq!(taken.next_pc, 0x100 - 8);
        let not = execute(b, 5, 1, 0x100);
        assert!(!not.taken);
        assert_eq!(not.next_pc, 0x104);
    }

    #[test]
    fn jalr_links_and_masks() {
        let j = Inst::Jalr {
            rd: Reg::LINK,
            base: Reg::x(5),
            offset: 3,
        };
        let out = execute(j, 0x2001, 0, 0x100);
        assert_eq!(out.value, Some(0x104));
        assert_eq!(out.next_pc, 0x2004 & !3);
    }

    #[test]
    fn alu_value() {
        let i = Inst::Alu {
            op: AluOp::Xor,
            rd: Reg::x(1),
            rs1: Reg::x(2),
            rs2: Reg::x(3),
        };
        assert_eq!(execute(i, 0b1100, 0b1010, 0).value, Some(0b0110));
    }

    #[test]
    fn mem_addr_offsets() {
        let l = Inst::Load {
            width: MemWidth::B8,
            signed: true,
            rd: Reg::x(1),
            base: Reg::x(2),
            offset: -8,
        };
        assert_eq!(mem_addr(l, 0x108), 0x100);
    }

    #[test]
    #[should_panic]
    fn execute_rejects_loads() {
        let l = Inst::Load {
            width: MemWidth::B8,
            signed: true,
            rd: Reg::x(1),
            base: Reg::x(2),
            offset: 0,
        };
        let _ = execute(l, 0, 0, 0);
    }
}
