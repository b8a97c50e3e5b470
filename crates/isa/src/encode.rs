//! Fixed 32-bit binary encoding.
//!
//! Layout (bit 31 is the MSB):
//!
//! ```text
//! [31:24] opcode
//! [23:18] field A   (rd, or rs1 for branches, or data reg for stores)
//! [17:12] field B   (rs1, or rs2 for branches)
//! [11:6]  field C   (rs2)                      -- register forms only
//! [11:0]  imm12     (sign- or zero-extended)   -- immediate forms
//! [17:0]  imm18     (sign-extended)            -- jal / lui
//! ```
//!
//! Every operation has its own opcode byte, so decode is a single match.
//! Branch and `jal` offsets are encoded in instruction units (words).

use std::fmt;

use crate::{AluOp, BranchCond, FpuOp, Inst, MemWidth, Reg};

/// Error produced by [`encode`] when an instruction's fields do not fit the
/// binary format.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EncodeError {
    /// A signed immediate is outside `[-2048, 2047]`.
    Imm12OutOfRange(i64),
    /// A zero-extended logical immediate is outside `[0, 4095]`.
    UImm12OutOfRange(i64),
    /// A jump/`lui` immediate is outside `[-131072, 131071]`.
    Imm18OutOfRange(i64),
    /// A shift amount is outside `[0, 63]`.
    ShiftOutOfRange(i64),
}

impl fmt::Display for EncodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EncodeError::Imm12OutOfRange(v) => {
                write!(f, "immediate {v} does not fit in signed 12 bits")
            }
            EncodeError::UImm12OutOfRange(v) => {
                write!(f, "logical immediate {v} does not fit in unsigned 12 bits")
            }
            EncodeError::Imm18OutOfRange(v) => {
                write!(f, "offset {v} does not fit in signed 18 bits")
            }
            EncodeError::ShiftOutOfRange(v) => write!(f, "shift amount {v} is not in 0..64"),
        }
    }
}

impl std::error::Error for EncodeError {}

/// Error produced by [`decode`] for an invalid instruction word.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct DecodeError {
    /// The offending word.
    pub word: u32,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid instruction word {:#010x}", self.word)
    }
}

impl std::error::Error for DecodeError {}

// Opcode bytes. Grouped; gaps are reserved.
const OP_ALU_BASE: u8 = 0x01; // +AluOp index, reg-reg
const OP_ALUI_BASE: u8 = 0x11; // +AluOp index, reg-imm
const OP_LUI: u8 = 0x21;
const OP_LB: u8 = 0x22;
const OP_LBU: u8 = 0x23;
const OP_LH: u8 = 0x24;
const OP_LHU: u8 = 0x25;
const OP_LW: u8 = 0x26;
const OP_LWU: u8 = 0x27;
const OP_LD: u8 = 0x28;
const OP_SB: u8 = 0x29;
const OP_SH: u8 = 0x2a;
const OP_SW: u8 = 0x2b;
const OP_SD: u8 = 0x2c;
const OP_BR_BASE: u8 = 0x2d; // +BranchCond index
const OP_JAL: u8 = 0x33;
const OP_JALR: u8 = 0x34;
const OP_FPU_BASE: u8 = 0x35; // +FpuOp index
const OP_PREFETCH: u8 = 0x41;
const OP_HALT: u8 = 0x42;

fn alu_index(op: AluOp) -> u8 {
    match op {
        AluOp::Add => 0,
        AluOp::Sub => 1,
        AluOp::And => 2,
        AluOp::Or => 3,
        AluOp::Xor => 4,
        AluOp::Sll => 5,
        AluOp::Srl => 6,
        AluOp::Sra => 7,
        AluOp::Slt => 8,
        AluOp::Sltu => 9,
        AluOp::Mul => 10,
        AluOp::Mulh => 11,
        AluOp::Div => 12,
        AluOp::Divu => 13,
        AluOp::Rem => 14,
        AluOp::Remu => 15,
    }
}

fn alu_from_index(i: u8) -> Option<AluOp> {
    Some(match i {
        0 => AluOp::Add,
        1 => AluOp::Sub,
        2 => AluOp::And,
        3 => AluOp::Or,
        4 => AluOp::Xor,
        5 => AluOp::Sll,
        6 => AluOp::Srl,
        7 => AluOp::Sra,
        8 => AluOp::Slt,
        9 => AluOp::Sltu,
        10 => AluOp::Mul,
        11 => AluOp::Mulh,
        12 => AluOp::Div,
        13 => AluOp::Divu,
        14 => AluOp::Rem,
        15 => AluOp::Remu,
        _ => return None,
    })
}

fn br_index(c: BranchCond) -> u8 {
    match c {
        BranchCond::Eq => 0,
        BranchCond::Ne => 1,
        BranchCond::Lt => 2,
        BranchCond::Ge => 3,
        BranchCond::Ltu => 4,
        BranchCond::Geu => 5,
    }
}

fn br_from_index(i: u8) -> Option<BranchCond> {
    Some(match i {
        0 => BranchCond::Eq,
        1 => BranchCond::Ne,
        2 => BranchCond::Lt,
        3 => BranchCond::Ge,
        4 => BranchCond::Ltu,
        5 => BranchCond::Geu,
        _ => return None,
    })
}

fn fpu_index(op: FpuOp) -> u8 {
    match op {
        FpuOp::Fadd => 0,
        FpuOp::Fsub => 1,
        FpuOp::Fmul => 2,
        FpuOp::Fdiv => 3,
        FpuOp::Fmin => 4,
        FpuOp::Fmax => 5,
        FpuOp::Fsqrt => 6,
        FpuOp::Feq => 7,
        FpuOp::Flt => 8,
        FpuOp::Fle => 9,
        FpuOp::CvtIntToF => 10,
        FpuOp::CvtFToInt => 11,
    }
}

fn fpu_from_index(i: u8) -> Option<FpuOp> {
    Some(match i {
        0 => FpuOp::Fadd,
        1 => FpuOp::Fsub,
        2 => FpuOp::Fmul,
        3 => FpuOp::Fdiv,
        4 => FpuOp::Fmin,
        5 => FpuOp::Fmax,
        6 => FpuOp::Fsqrt,
        7 => FpuOp::Feq,
        8 => FpuOp::Flt,
        9 => FpuOp::Fle,
        10 => FpuOp::CvtIntToF,
        11 => FpuOp::CvtFToInt,
        _ => return None,
    })
}

/// `true` for logical immediate operations whose immediate is zero-extended.
fn is_logical_imm(op: AluOp) -> bool {
    matches!(op, AluOp::And | AluOp::Or | AluOp::Xor)
}

fn is_shift(op: AluOp) -> bool {
    matches!(op, AluOp::Sll | AluOp::Srl | AluOp::Sra)
}

fn check_imm12(v: i64) -> Result<u32, EncodeError> {
    if (-2048..=2047).contains(&v) {
        Ok((v as u32) & 0xfff)
    } else {
        Err(EncodeError::Imm12OutOfRange(v))
    }
}

fn check_uimm12(v: i64) -> Result<u32, EncodeError> {
    if (0..=4095).contains(&v) {
        Ok(v as u32)
    } else {
        Err(EncodeError::UImm12OutOfRange(v))
    }
}

fn check_imm18(v: i64) -> Result<u32, EncodeError> {
    if (-131072..=131071).contains(&v) {
        Ok((v as u32) & 0x3ffff)
    } else {
        Err(EncodeError::Imm18OutOfRange(v))
    }
}

fn check_shift(v: i64) -> Result<u32, EncodeError> {
    if (0..=63).contains(&v) {
        Ok(v as u32)
    } else {
        Err(EncodeError::ShiftOutOfRange(v))
    }
}

fn sext(v: u32, bits: u32) -> i64 {
    let shift = 64 - bits;
    (((v as u64) << shift) as i64) >> shift
}

fn word(op: u8, a: u8, b: u8, c: u8) -> u32 {
    ((op as u32) << 24)
        | ((a as u32 & 0x3f) << 18)
        | ((b as u32 & 0x3f) << 12)
        | ((c as u32 & 0x3f) << 6)
}

fn word_imm(op: u8, a: u8, b: u8, imm12: u32) -> u32 {
    ((op as u32) << 24) | ((a as u32 & 0x3f) << 18) | ((b as u32 & 0x3f) << 12) | (imm12 & 0xfff)
}

fn word_imm18(op: u8, a: u8, imm18: u32) -> u32 {
    ((op as u32) << 24) | ((a as u32 & 0x3f) << 18) | (imm18 & 0x3ffff)
}

/// Encodes a decoded instruction into its 32-bit word.
///
/// # Errors
///
/// Returns an [`EncodeError`] when an immediate or offset does not fit the
/// field width; see the error variants for the exact ranges.
pub fn encode(inst: Inst) -> Result<u32, EncodeError> {
    Ok(match inst {
        Inst::Alu { op, rd, rs1, rs2 } => {
            word(OP_ALU_BASE + alu_index(op), rd.raw(), rs1.raw(), rs2.raw())
        }
        Inst::AluImm { op, rd, rs1, imm } => {
            let enc = if is_logical_imm(op) {
                check_uimm12(imm)?
            } else if is_shift(op) {
                check_shift(imm)?
            } else {
                check_imm12(imm)?
            };
            word_imm(OP_ALUI_BASE + alu_index(op), rd.raw(), rs1.raw(), enc)
        }
        Inst::Lui { rd, imm } => word_imm18(OP_LUI, rd.raw(), check_imm18(imm)?),
        Inst::Load {
            width,
            signed,
            rd,
            base,
            offset,
        } => {
            let op = match (width, signed) {
                (MemWidth::B1, true) => OP_LB,
                (MemWidth::B1, false) => OP_LBU,
                (MemWidth::B2, true) => OP_LH,
                (MemWidth::B2, false) => OP_LHU,
                (MemWidth::B4, true) => OP_LW,
                (MemWidth::B4, false) => OP_LWU,
                (MemWidth::B8, _) => OP_LD,
            };
            word_imm(op, rd.raw(), base.raw(), check_imm12(offset)?)
        }
        Inst::Store {
            width,
            src,
            base,
            offset,
        } => {
            let op = match width {
                MemWidth::B1 => OP_SB,
                MemWidth::B2 => OP_SH,
                MemWidth::B4 => OP_SW,
                MemWidth::B8 => OP_SD,
            };
            word_imm(op, src.raw(), base.raw(), check_imm12(offset)?)
        }
        Inst::Branch {
            cond,
            rs1,
            rs2,
            offset,
        } => word_imm(
            OP_BR_BASE + br_index(cond),
            rs1.raw(),
            rs2.raw(),
            check_imm12(offset)?,
        ),
        Inst::Jal { rd, offset } => word_imm18(OP_JAL, rd.raw(), check_imm18(offset)?),
        Inst::Jalr { rd, base, offset } => {
            word_imm(OP_JALR, rd.raw(), base.raw(), check_imm12(offset)?)
        }
        Inst::Fpu { op, rd, rs1, rs2 } => {
            let rs2 = if op.is_unary() { Reg::ZERO } else { rs2 };
            word(OP_FPU_BASE + fpu_index(op), rd.raw(), rs1.raw(), rs2.raw())
        }
        Inst::Prefetch { base, offset } => {
            word_imm(OP_PREFETCH, 0, base.raw(), check_imm12(offset)?)
        }
        Inst::Halt => word(OP_HALT, 0, 0, 0),
    })
}

/// Decodes a 32-bit instruction word.
///
/// # Errors
///
/// Returns a [`DecodeError`] for reserved opcode bytes. All register fields
/// are 6 bits and therefore always valid.
pub fn decode(w: u32) -> Result<Inst, DecodeError> {
    let op = (w >> 24) as u8;
    let a = Reg::from_index(((w >> 18) & 0x3f) as u8).expect("6-bit field");
    let b = Reg::from_index(((w >> 12) & 0x3f) as u8).expect("6-bit field");
    let c = Reg::from_index(((w >> 6) & 0x3f) as u8).expect("6-bit field");
    let imm12 = w & 0xfff;
    let imm18 = w & 0x3ffff;

    let inst = match op {
        _ if (OP_ALU_BASE..OP_ALU_BASE + 16).contains(&op) => {
            let alu = alu_from_index(op - OP_ALU_BASE).expect("range-checked");
            Inst::Alu {
                op: alu,
                rd: a,
                rs1: b,
                rs2: c,
            }
        }
        _ if (OP_ALUI_BASE..OP_ALUI_BASE + 16).contains(&op) => {
            let alu = alu_from_index(op - OP_ALUI_BASE).expect("range-checked");
            let imm = if is_shift(alu) {
                // Hardware masks shift amounts to 6 bits; canonicalize so
                // decode(encode(i)) is a fixed point.
                (imm12 & 0x3f) as i64
            } else if is_logical_imm(alu) {
                imm12 as i64
            } else {
                sext(imm12, 12)
            };
            Inst::AluImm {
                op: alu,
                rd: a,
                rs1: b,
                imm,
            }
        }
        OP_LUI => Inst::Lui {
            rd: a,
            imm: sext(imm18, 18),
        },
        OP_LB | OP_LBU | OP_LH | OP_LHU | OP_LW | OP_LWU | OP_LD => {
            let (width, signed) = match op {
                OP_LB => (MemWidth::B1, true),
                OP_LBU => (MemWidth::B1, false),
                OP_LH => (MemWidth::B2, true),
                OP_LHU => (MemWidth::B2, false),
                OP_LW => (MemWidth::B4, true),
                OP_LWU => (MemWidth::B4, false),
                _ => (MemWidth::B8, true),
            };
            Inst::Load {
                width,
                signed,
                rd: a,
                base: b,
                offset: sext(imm12, 12),
            }
        }
        OP_SB | OP_SH | OP_SW | OP_SD => {
            let width = match op {
                OP_SB => MemWidth::B1,
                OP_SH => MemWidth::B2,
                OP_SW => MemWidth::B4,
                _ => MemWidth::B8,
            };
            Inst::Store {
                width,
                src: a,
                base: b,
                offset: sext(imm12, 12),
            }
        }
        _ if (OP_BR_BASE..OP_BR_BASE + 6).contains(&op) => {
            let cond = br_from_index(op - OP_BR_BASE).expect("range-checked");
            Inst::Branch {
                cond,
                rs1: a,
                rs2: b,
                offset: sext(imm12, 12),
            }
        }
        OP_JAL => Inst::Jal {
            rd: a,
            offset: sext(imm18, 18),
        },
        OP_JALR => Inst::Jalr {
            rd: a,
            base: b,
            offset: sext(imm12, 12),
        },
        _ if (OP_FPU_BASE..OP_FPU_BASE + 12).contains(&op) => {
            let fop = fpu_from_index(op - OP_FPU_BASE).expect("range-checked");
            // Canonicalize the unused rs2 field of unary ops so that
            // decode(encode(i)) is a fixed point.
            let rs2 = if fop.is_unary() { Reg::ZERO } else { c };
            Inst::Fpu {
                op: fop,
                rd: a,
                rs1: b,
                rs2,
            }
        }
        OP_PREFETCH => Inst::Prefetch {
            base: b,
            offset: sext(imm12, 12),
        },
        OP_HALT => Inst::Halt,
        _ => return Err(DecodeError { word: w }),
    };
    Ok(inst)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(i: Inst) {
        let w = encode(i).expect("encodable");
        let back = decode(w).expect("decodable");
        assert_eq!(i, back, "word {w:#010x}");
    }

    #[test]
    fn roundtrip_representatives() {
        roundtrip(Inst::Alu {
            op: AluOp::Sub,
            rd: Reg::x(31),
            rs1: Reg::f(0),
            rs2: Reg::f(31),
        });
        roundtrip(Inst::AluImm {
            op: AluOp::Add,
            rd: Reg::x(1),
            rs1: Reg::x(2),
            imm: -2048,
        });
        roundtrip(Inst::AluImm {
            op: AluOp::Or,
            rd: Reg::x(1),
            rs1: Reg::x(2),
            imm: 4095,
        });
        roundtrip(Inst::AluImm {
            op: AluOp::Sll,
            rd: Reg::x(1),
            rs1: Reg::x(2),
            imm: 63,
        });
        roundtrip(Inst::Lui {
            rd: Reg::x(3),
            imm: -131072,
        });
        roundtrip(Inst::Load {
            width: MemWidth::B4,
            signed: false,
            rd: Reg::f(7),
            base: Reg::x(9),
            offset: 2047,
        });
        roundtrip(Inst::Store {
            width: MemWidth::B1,
            src: Reg::x(30),
            base: Reg::SP,
            offset: -1,
        });
        roundtrip(Inst::Branch {
            cond: BranchCond::Geu,
            rs1: Reg::x(4),
            rs2: Reg::x(5),
            offset: -100,
        });
        roundtrip(Inst::Jal {
            rd: Reg::LINK,
            offset: 131071,
        });
        roundtrip(Inst::Jalr {
            rd: Reg::ZERO,
            base: Reg::x(10),
            offset: 8,
        });
        roundtrip(Inst::Fpu {
            op: FpuOp::Fdiv,
            rd: Reg::f(1),
            rs1: Reg::f(2),
            rs2: Reg::f(3),
        });
        roundtrip(Inst::Prefetch {
            base: Reg::x(6),
            offset: 64,
        });
        roundtrip(Inst::Halt);
    }

    #[test]
    fn unary_fpu_normalizes_rs2() {
        let i = Inst::Fpu {
            op: FpuOp::Fsqrt,
            rd: Reg::f(1),
            rs1: Reg::f(2),
            rs2: Reg::f(9),
        };
        let w = encode(i).unwrap();
        let back = decode(w).unwrap();
        match back {
            Inst::Fpu { op, rs2, .. } => {
                assert_eq!(op, FpuOp::Fsqrt);
                assert_eq!(rs2, Reg::ZERO, "unary rs2 is canonicalized to x0");
            }
            other => panic!("decoded to {other:?}"),
        }
    }

    #[test]
    fn out_of_range_immediates_rejected() {
        assert_eq!(
            encode(Inst::AluImm {
                op: AluOp::Add,
                rd: Reg::x(1),
                rs1: Reg::x(1),
                imm: 2048
            }),
            Err(EncodeError::Imm12OutOfRange(2048))
        );
        assert_eq!(
            encode(Inst::AluImm {
                op: AluOp::And,
                rd: Reg::x(1),
                rs1: Reg::x(1),
                imm: -1
            }),
            Err(EncodeError::UImm12OutOfRange(-1))
        );
        assert_eq!(
            encode(Inst::AluImm {
                op: AluOp::Sll,
                rd: Reg::x(1),
                rs1: Reg::x(1),
                imm: 64
            }),
            Err(EncodeError::ShiftOutOfRange(64))
        );
        assert_eq!(
            encode(Inst::Jal {
                rd: Reg::ZERO,
                offset: 131072
            }),
            Err(EncodeError::Imm18OutOfRange(131072))
        );
    }

    #[test]
    fn reserved_opcodes_fail_decode() {
        assert!(decode(0x0000_0000).is_err());
        assert!(decode(0xff00_0000).is_err());
        assert!(decode((0x43u32) << 24).is_err());
    }

    #[test]
    fn negative_offsets_sign_extend() {
        let w = encode(Inst::Branch {
            cond: BranchCond::Eq,
            rs1: Reg::x(1),
            rs2: Reg::x(2),
            offset: -1,
        })
        .unwrap();
        match decode(w).unwrap() {
            Inst::Branch { offset, .. } => assert_eq!(offset, -1),
            other => panic!("decoded to {other:?}"),
        }
    }
}
