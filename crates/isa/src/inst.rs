use std::fmt;

use crate::Reg;

/// Integer ALU operation, used by both register-register and
/// register-immediate instruction forms.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
#[allow(missing_docs)]
pub enum AluOp {
    Add,
    Sub,
    And,
    Or,
    Xor,
    /// Shift left logical (shift amount is the low 6 bits of the operand).
    Sll,
    /// Shift right logical.
    Srl,
    /// Shift right arithmetic.
    Sra,
    /// Set-if-less-than, signed; result is 0 or 1.
    Slt,
    /// Set-if-less-than, unsigned; result is 0 or 1.
    Sltu,
    /// Low 64 bits of the signed product.
    Mul,
    /// High 64 bits of the signed product.
    Mulh,
    /// Signed division; division by zero yields all-ones, overflow wraps.
    Div,
    /// Unsigned division; division by zero yields all-ones.
    Divu,
    /// Signed remainder; remainder by zero yields the dividend.
    Rem,
    /// Unsigned remainder; remainder by zero yields the dividend.
    Remu,
}

impl AluOp {
    /// Evaluates the operation on two 64-bit operand values.
    ///
    /// This single definition is shared by the functional interpreter and by
    /// every timing core's execute stage, so functional and timing models
    /// cannot disagree about arithmetic.
    #[inline]
    pub fn eval(self, a: u64, b: u64) -> u64 {
        match self {
            AluOp::Add => a.wrapping_add(b),
            AluOp::Sub => a.wrapping_sub(b),
            AluOp::And => a & b,
            AluOp::Or => a | b,
            AluOp::Xor => a ^ b,
            AluOp::Sll => a.wrapping_shl((b & 0x3f) as u32),
            AluOp::Srl => a.wrapping_shr((b & 0x3f) as u32),
            AluOp::Sra => ((a as i64).wrapping_shr((b & 0x3f) as u32)) as u64,
            AluOp::Slt => ((a as i64) < (b as i64)) as u64,
            AluOp::Sltu => (a < b) as u64,
            AluOp::Mul => a.wrapping_mul(b),
            AluOp::Mulh => (((a as i64 as i128) * (b as i64 as i128)) >> 64) as u64,
            AluOp::Div => {
                if b == 0 {
                    u64::MAX
                } else {
                    (a as i64).wrapping_div(b as i64) as u64
                }
            }
            AluOp::Divu => a.checked_div(b).unwrap_or(u64::MAX),
            AluOp::Rem => {
                if b == 0 {
                    a
                } else {
                    (a as i64).wrapping_rem(b as i64) as u64
                }
            }
            AluOp::Remu => {
                if b == 0 {
                    a
                } else {
                    a % b
                }
            }
        }
    }

    /// `true` for multiply/divide/remainder, which occupy the long-latency
    /// integer unit in every core model.
    #[inline]
    pub fn is_long_latency(self) -> bool {
        matches!(
            self,
            AluOp::Mul | AluOp::Mulh | AluOp::Div | AluOp::Divu | AluOp::Rem | AluOp::Remu
        )
    }

    /// Assembly mnemonic (register-register form).
    pub fn mnemonic(self) -> &'static str {
        match self {
            AluOp::Add => "add",
            AluOp::Sub => "sub",
            AluOp::And => "and",
            AluOp::Or => "or",
            AluOp::Xor => "xor",
            AluOp::Sll => "sll",
            AluOp::Srl => "srl",
            AluOp::Sra => "sra",
            AluOp::Slt => "slt",
            AluOp::Sltu => "sltu",
            AluOp::Mul => "mul",
            AluOp::Mulh => "mulh",
            AluOp::Div => "div",
            AluOp::Divu => "divu",
            AluOp::Rem => "rem",
            AluOp::Remu => "remu",
        }
    }
}

/// Floating-point operation on `f64` values stored as raw bits in the
/// unified register file. Comparison ops produce a 0/1 integer result.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
#[allow(missing_docs)]
pub enum FpuOp {
    Fadd,
    Fsub,
    Fmul,
    Fdiv,
    Fmin,
    Fmax,
    /// Square root; unary (`rs2` is ignored and must be `x0` in the encoding).
    Fsqrt,
    /// Set-if-equal on f64 operands; 0/1 result.
    Feq,
    /// Set-if-less-than on f64 operands; 0/1 result.
    Flt,
    /// Set-if-less-or-equal on f64 operands; 0/1 result.
    Fle,
    /// Convert signed 64-bit integer to f64 (`rs2` ignored).
    CvtIntToF,
    /// Convert f64 to signed 64-bit integer, truncating (`rs2` ignored).
    CvtFToInt,
}

impl FpuOp {
    /// Evaluates the operation on two raw 64-bit operand values.
    ///
    /// Binary operands are interpreted as `f64` bit patterns; comparison and
    /// conversion results are produced in the integer domain where
    /// appropriate. NaN comparisons are false, matching IEEE semantics.
    #[inline]
    pub fn eval(self, a: u64, b: u64) -> u64 {
        let fa = f64::from_bits(a);
        let fb = f64::from_bits(b);
        match self {
            FpuOp::Fadd => (fa + fb).to_bits(),
            FpuOp::Fsub => (fa - fb).to_bits(),
            FpuOp::Fmul => (fa * fb).to_bits(),
            FpuOp::Fdiv => (fa / fb).to_bits(),
            FpuOp::Fmin => fa.min(fb).to_bits(),
            FpuOp::Fmax => fa.max(fb).to_bits(),
            FpuOp::Fsqrt => fa.sqrt().to_bits(),
            FpuOp::Feq => (fa == fb) as u64,
            FpuOp::Flt => (fa < fb) as u64,
            FpuOp::Fle => (fa <= fb) as u64,
            FpuOp::CvtIntToF => ((a as i64) as f64).to_bits(),
            FpuOp::CvtFToInt => {
                // Saturating truncation: NaN maps to 0.
                if fa.is_nan() {
                    0
                } else if fa >= i64::MAX as f64 {
                    i64::MAX as u64
                } else if fa <= i64::MIN as f64 {
                    i64::MIN as u64
                } else {
                    (fa as i64) as u64
                }
            }
        }
    }

    /// `true` for the unary operations that read only `rs1`.
    #[inline]
    pub fn is_unary(self) -> bool {
        matches!(self, FpuOp::Fsqrt | FpuOp::CvtIntToF | FpuOp::CvtFToInt)
    }

    /// `true` for divide/sqrt, which occupy the long-latency FP unit.
    #[inline]
    pub fn is_long_latency(self) -> bool {
        matches!(self, FpuOp::Fdiv | FpuOp::Fsqrt)
    }

    /// Assembly mnemonic.
    pub fn mnemonic(self) -> &'static str {
        match self {
            FpuOp::Fadd => "fadd",
            FpuOp::Fsub => "fsub",
            FpuOp::Fmul => "fmul",
            FpuOp::Fdiv => "fdiv",
            FpuOp::Fmin => "fmin",
            FpuOp::Fmax => "fmax",
            FpuOp::Fsqrt => "fsqrt",
            FpuOp::Feq => "feq",
            FpuOp::Flt => "flt",
            FpuOp::Fle => "fle",
            FpuOp::CvtIntToF => "fcvt.d.l",
            FpuOp::CvtFToInt => "fcvt.l.d",
        }
    }
}

/// Branch comparison condition.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
#[allow(missing_docs)]
pub enum BranchCond {
    Eq,
    Ne,
    Lt,
    Ge,
    Ltu,
    Geu,
}

impl BranchCond {
    /// Evaluates the condition on two operand values.
    #[inline]
    pub fn eval(self, a: u64, b: u64) -> bool {
        match self {
            BranchCond::Eq => a == b,
            BranchCond::Ne => a != b,
            BranchCond::Lt => (a as i64) < (b as i64),
            BranchCond::Ge => (a as i64) >= (b as i64),
            BranchCond::Ltu => a < b,
            BranchCond::Geu => a >= b,
        }
    }

    /// Assembly mnemonic (`beq`, `bne`, ...).
    pub fn mnemonic(self) -> &'static str {
        match self {
            BranchCond::Eq => "beq",
            BranchCond::Ne => "bne",
            BranchCond::Lt => "blt",
            BranchCond::Ge => "bge",
            BranchCond::Ltu => "bltu",
            BranchCond::Geu => "bgeu",
        }
    }
}

/// Memory access width in bytes.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
#[allow(missing_docs)]
pub enum MemWidth {
    B1,
    B2,
    B4,
    B8,
}

impl MemWidth {
    /// Width in bytes.
    #[inline]
    pub const fn bytes(self) -> u64 {
        match self {
            MemWidth::B1 => 1,
            MemWidth::B2 => 2,
            MemWidth::B4 => 4,
            MemWidth::B8 => 8,
        }
    }
}

/// A decoded instruction.
///
/// This is the form every pipeline model operates on. The binary encoding
/// ([`crate::encode`]/[`crate::decode`]) round-trips through this type.
///
/// Note that the register file is unified (see [`Reg`]): loads and stores may
/// target FP registers directly (`fld`/`fsd` in assembly are the same `Load`/
/// `Store` variants with an FP destination/source), and ALU `add` serves as
/// the universal register move, including between files.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Inst {
    /// Register-register ALU operation: `rd = op(rs1, rs2)`.
    Alu {
        /// Operation.
        op: AluOp,
        /// Destination register.
        rd: Reg,
        /// First source.
        rs1: Reg,
        /// Second source.
        rs2: Reg,
    },
    /// Register-immediate ALU operation: `rd = op(rs1, imm)`.
    ///
    /// Arithmetic/comparison immediates are sign-extended 12-bit values;
    /// logical immediates (`and`/`or`/`xor`) are zero-extended 12-bit values
    /// so that constants can be assembled with `sll`/`or` chains.
    AluImm {
        /// Operation.
        op: AluOp,
        /// Destination register.
        rd: Reg,
        /// Source register.
        rs1: Reg,
        /// Immediate operand (already extended).
        imm: i64,
    },
    /// Load upper immediate: `rd = sign_extend(imm) << 12`.
    Lui {
        /// Destination register.
        rd: Reg,
        /// 18-bit signed immediate.
        imm: i64,
    },
    /// Memory load: `rd = mem[rs1 + offset]`, zero- or sign-extended.
    Load {
        /// Access width.
        width: MemWidth,
        /// Whether the loaded value is sign-extended to 64 bits.
        signed: bool,
        /// Destination register.
        rd: Reg,
        /// Base address register.
        base: Reg,
        /// Signed 12-bit byte offset.
        offset: i64,
    },
    /// Memory store: `mem[base + offset] = src` (low `width` bytes).
    Store {
        /// Access width.
        width: MemWidth,
        /// Register holding the value to store.
        src: Reg,
        /// Base address register.
        base: Reg,
        /// Signed 12-bit byte offset.
        offset: i64,
    },
    /// Conditional branch: `if cond(rs1, rs2) pc += offset * 4`.
    Branch {
        /// Comparison condition.
        cond: BranchCond,
        /// First comparison source.
        rs1: Reg,
        /// Second comparison source.
        rs2: Reg,
        /// Signed offset in *instructions* (not bytes) from this instruction.
        offset: i64,
    },
    /// Jump-and-link: `rd = pc + 4; pc += offset * 4`.
    Jal {
        /// Link destination (use `x0` for a plain jump).
        rd: Reg,
        /// Signed offset in instructions from this instruction.
        offset: i64,
    },
    /// Indirect jump-and-link: `rd = pc + 4; pc = (base + offset) & !3`.
    Jalr {
        /// Link destination (use `x0` for a plain indirect jump).
        rd: Reg,
        /// Register holding the target address.
        base: Reg,
        /// Signed 12-bit byte offset added to the target.
        offset: i64,
    },
    /// Floating-point operation (see [`FpuOp`]); comparisons and `fcvt.l.d`
    /// write an integer-domain value but may still target any register.
    Fpu {
        /// Operation.
        op: FpuOp,
        /// Destination register.
        rd: Reg,
        /// First source.
        rs1: Reg,
        /// Second source (ignored by unary ops).
        rs2: Reg,
    },
    /// Software prefetch hint for address `base + offset`. No architectural
    /// effect; timing models may initiate a cache fill.
    Prefetch {
        /// Base address register.
        base: Reg,
        /// Signed 12-bit byte offset.
        offset: i64,
    },
    /// Stops the program. Used by every workload to mark completion.
    Halt,
}

/// Coarse instruction class, used for statistics and functional-unit binding.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
#[allow(missing_docs)]
pub enum InstClass {
    IntAlu,
    IntMulDiv,
    Load,
    Store,
    Branch,
    Jump,
    Fp,
    FpDiv,
    Prefetch,
    Halt,
}

impl InstClass {
    /// Position of this class in [`InstClass::ALL`] (declaration order, so
    /// the discriminant is the index — no scan).
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Short display label used in statistics tables.
    pub fn label(self) -> &'static str {
        match self {
            InstClass::IntAlu => "int-alu",
            InstClass::IntMulDiv => "int-muldiv",
            InstClass::Load => "load",
            InstClass::Store => "store",
            InstClass::Branch => "branch",
            InstClass::Jump => "jump",
            InstClass::Fp => "fp",
            InstClass::FpDiv => "fp-div",
            InstClass::Prefetch => "prefetch",
            InstClass::Halt => "halt",
        }
    }

    /// All classes, in display order.
    pub const ALL: [InstClass; 10] = [
        InstClass::IntAlu,
        InstClass::IntMulDiv,
        InstClass::Load,
        InstClass::Store,
        InstClass::Branch,
        InstClass::Jump,
        InstClass::Fp,
        InstClass::FpDiv,
        InstClass::Prefetch,
        InstClass::Halt,
    ];
}

impl Inst {
    /// A canonical no-op (`addi x0, x0, 0`).
    pub const NOP: Inst = Inst::AluImm {
        op: AluOp::Add,
        rd: Reg::ZERO,
        rs1: Reg::ZERO,
        imm: 0,
    };

    /// The destination register written by this instruction, if any.
    ///
    /// Writes to `x0` are reported as `None`: they are architecturally
    /// invisible and the pipelines must not create dependences on them.
    #[inline]
    pub fn dest(self) -> Option<Reg> {
        let rd = match self {
            Inst::Alu { rd, .. }
            | Inst::AluImm { rd, .. }
            | Inst::Lui { rd, .. }
            | Inst::Load { rd, .. }
            | Inst::Jal { rd, .. }
            | Inst::Jalr { rd, .. }
            | Inst::Fpu { rd, .. } => rd,
            Inst::Store { .. } | Inst::Branch { .. } | Inst::Prefetch { .. } | Inst::Halt => {
                return None
            }
        };
        if rd.is_zero() {
            None
        } else {
            Some(rd)
        }
    }

    /// The source registers read by this instruction.
    ///
    /// Reads of `x0` are reported as `None` (its value is constant, so no
    /// dependence exists). For a store, the *data* register is the second
    /// source and the *address base* the first.
    #[inline]
    pub fn sources(self) -> [Option<Reg>; 2] {
        fn src(r: Reg) -> Option<Reg> {
            if r.is_zero() {
                None
            } else {
                Some(r)
            }
        }
        match self {
            Inst::Alu { rs1, rs2, .. } => [src(rs1), src(rs2)],
            Inst::AluImm { rs1, .. } => [src(rs1), None],
            Inst::Lui { .. } | Inst::Jal { .. } | Inst::Halt => [None, None],
            Inst::Load { base, .. } => [src(base), None],
            Inst::Store {
                src: data, base, ..
            } => [src(base), src(data)],
            Inst::Branch { rs1, rs2, .. } => [src(rs1), src(rs2)],
            Inst::Jalr { base, .. } => [src(base), None],
            Inst::Fpu { op, rs1, rs2, .. } => {
                if op.is_unary() {
                    [src(rs1), None]
                } else {
                    [src(rs1), src(rs2)]
                }
            }
            Inst::Prefetch { base, .. } => [src(base), None],
        }
    }

    /// `true` for loads (architectural memory reads).
    #[inline]
    pub fn is_load(self) -> bool {
        matches!(self, Inst::Load { .. })
    }

    /// `true` for stores.
    #[inline]
    pub fn is_store(self) -> bool {
        matches!(self, Inst::Store { .. })
    }

    /// `true` for any memory-accessing instruction, including prefetch.
    #[inline]
    pub fn is_mem(self) -> bool {
        matches!(
            self,
            Inst::Load { .. } | Inst::Store { .. } | Inst::Prefetch { .. }
        )
    }

    /// `true` for conditional branches.
    #[inline]
    pub fn is_branch(self) -> bool {
        matches!(self, Inst::Branch { .. })
    }

    /// `true` for any instruction that can redirect the PC.
    #[inline]
    pub fn is_control(self) -> bool {
        matches!(
            self,
            Inst::Branch { .. } | Inst::Jal { .. } | Inst::Jalr { .. }
        )
    }

    /// `true` if the control-flow target is not computable from the
    /// instruction word alone (i.e., `jalr`).
    #[inline]
    pub fn is_indirect(self) -> bool {
        matches!(self, Inst::Jalr { .. })
    }

    /// The coarse class of this instruction.
    #[inline]
    pub fn class(self) -> InstClass {
        match self {
            Inst::Alu { op, .. } | Inst::AluImm { op, .. } => {
                if op.is_long_latency() {
                    InstClass::IntMulDiv
                } else {
                    InstClass::IntAlu
                }
            }
            Inst::Lui { .. } => InstClass::IntAlu,
            Inst::Load { .. } => InstClass::Load,
            Inst::Store { .. } => InstClass::Store,
            Inst::Branch { .. } => InstClass::Branch,
            Inst::Jal { .. } | Inst::Jalr { .. } => InstClass::Jump,
            Inst::Fpu { op, .. } => {
                if op.is_long_latency() {
                    InstClass::FpDiv
                } else {
                    InstClass::Fp
                }
            }
            Inst::Prefetch { .. } => InstClass::Prefetch,
            Inst::Halt => InstClass::Halt,
        }
    }

    /// For direct control transfers, the target PC given this instruction's
    /// own PC. Returns `None` for non-control and indirect instructions.
    #[inline]
    pub fn direct_target(self, pc: u64) -> Option<u64> {
        match self {
            Inst::Branch { offset, .. } | Inst::Jal { offset, .. } => {
                Some(pc.wrapping_add_signed(offset * 4))
            }
            _ => None,
        }
    }
}

impl fmt::Display for Inst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&crate::disasm(*self))
    }
}

/// Renders an instruction in assembly syntax.
///
/// Branch and jump offsets are printed in instruction units prefixed with
/// `.` (e.g. `beq x1, x2, .-3`), matching what [`crate::assemble`] accepts.
pub fn disasm(inst: Inst) -> String {
    match inst {
        Inst::Alu { op, rd, rs1, rs2 } => {
            format!("{} {rd}, {rs1}, {rs2}", op.mnemonic())
        }
        Inst::AluImm { op, rd, rs1, imm } => {
            format!("{}i {rd}, {rs1}, {imm}", op.mnemonic())
        }
        Inst::Lui { rd, imm } => format!("lui {rd}, {imm}"),
        Inst::Load {
            width,
            signed,
            rd,
            base,
            offset,
        } => {
            let m = match (width, signed) {
                (MemWidth::B1, true) => "lb",
                (MemWidth::B1, false) => "lbu",
                (MemWidth::B2, true) => "lh",
                (MemWidth::B2, false) => "lhu",
                (MemWidth::B4, true) => "lw",
                (MemWidth::B4, false) => "lwu",
                (MemWidth::B8, _) => "ld",
            };
            format!("{m} {rd}, {offset}({base})")
        }
        Inst::Store {
            width,
            src,
            base,
            offset,
        } => {
            let m = match width {
                MemWidth::B1 => "sb",
                MemWidth::B2 => "sh",
                MemWidth::B4 => "sw",
                MemWidth::B8 => "sd",
            };
            format!("{m} {src}, {offset}({base})")
        }
        Inst::Branch {
            cond,
            rs1,
            rs2,
            offset,
        } => format!("{} {rs1}, {rs2}, .{offset:+}", cond.mnemonic()),
        Inst::Jal { rd, offset } => format!("jal {rd}, .{offset:+}"),
        Inst::Jalr { rd, base, offset } => format!("jalr {rd}, {offset}({base})"),
        Inst::Fpu { op, rd, rs1, rs2 } => {
            if op.is_unary() {
                format!("{} {rd}, {rs1}", op.mnemonic())
            } else {
                format!("{} {rd}, {rs1}, {rs2}", op.mnemonic())
            }
        }
        Inst::Prefetch { base, offset } => format!("prefetch {offset}({base})"),
        Inst::Halt => "halt".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_index_matches_all_order() {
        for (i, c) in InstClass::ALL.iter().enumerate() {
            assert_eq!(c.index(), i, "{c:?} out of declaration order");
        }
    }

    #[test]
    fn alu_eval_basics() {
        assert_eq!(AluOp::Add.eval(2, 3), 5);
        assert_eq!(AluOp::Sub.eval(2, 3), u64::MAX);
        assert_eq!(AluOp::Slt.eval((-1i64) as u64, 0), 1);
        assert_eq!(AluOp::Sltu.eval((-1i64) as u64, 0), 0);
        assert_eq!(AluOp::Sra.eval((-8i64) as u64, 1), (-4i64) as u64);
        assert_eq!(AluOp::Srl.eval(8, 1), 4);
        assert_eq!(
            AluOp::Sll.eval(1, 65),
            2,
            "shift amount is masked to 6 bits"
        );
    }

    #[test]
    fn div_by_zero_is_defined() {
        assert_eq!(AluOp::Div.eval(5, 0), u64::MAX);
        assert_eq!(AluOp::Divu.eval(5, 0), u64::MAX);
        assert_eq!(AluOp::Rem.eval(5, 0), 5);
        assert_eq!(AluOp::Remu.eval(5, 0), 5);
    }

    #[test]
    fn div_overflow_wraps() {
        let min = i64::MIN as u64;
        let neg1 = (-1i64) as u64;
        assert_eq!(AluOp::Div.eval(min, neg1), min);
        assert_eq!(AluOp::Rem.eval(min, neg1), 0);
    }

    #[test]
    fn mulh_matches_wide_multiply() {
        let a = 0x1234_5678_9abc_def0u64;
        let b = (-3i64) as u64;
        let wide = (a as i64 as i128) * (b as i64 as i128);
        assert_eq!(AluOp::Mulh.eval(a, b), (wide >> 64) as u64);
        assert_eq!(AluOp::Mul.eval(a, b), wide as u64);
    }

    #[test]
    fn fpu_eval_basics() {
        let two = 2.0f64.to_bits();
        let three = 3.0f64.to_bits();
        assert_eq!(f64::from_bits(FpuOp::Fadd.eval(two, three)), 5.0);
        assert_eq!(f64::from_bits(FpuOp::Fmul.eval(two, three)), 6.0);
        assert_eq!(FpuOp::Flt.eval(two, three), 1);
        assert_eq!(FpuOp::Feq.eval(two, two), 1);
        assert_eq!(f64::from_bits(FpuOp::Fsqrt.eval(9.0f64.to_bits(), 0)), 3.0);
    }

    #[test]
    fn fpu_nan_compares_false() {
        let nan = f64::NAN.to_bits();
        assert_eq!(FpuOp::Feq.eval(nan, nan), 0);
        assert_eq!(FpuOp::Flt.eval(nan, nan), 0);
        assert_eq!(FpuOp::Fle.eval(nan, nan), 0);
    }

    #[test]
    fn fcvt_saturates() {
        assert_eq!(FpuOp::CvtFToInt.eval(f64::NAN.to_bits(), 0), 0);
        assert_eq!(
            FpuOp::CvtFToInt.eval(1e300f64.to_bits(), 0),
            i64::MAX as u64
        );
        assert_eq!(
            FpuOp::CvtFToInt.eval((-1e300f64).to_bits(), 0),
            i64::MIN as u64
        );
        assert_eq!(FpuOp::CvtFToInt.eval(42.9f64.to_bits(), 0), 42);
        assert_eq!(
            f64::from_bits(FpuOp::CvtIntToF.eval((-7i64) as u64, 0)),
            -7.0
        );
    }

    #[test]
    fn dest_hides_x0() {
        let i = Inst::AluImm {
            op: AluOp::Add,
            rd: Reg::ZERO,
            rs1: Reg::x(3),
            imm: 1,
        };
        assert_eq!(i.dest(), None);
        let i = Inst::AluImm {
            op: AluOp::Add,
            rd: Reg::x(4),
            rs1: Reg::x(3),
            imm: 1,
        };
        assert_eq!(i.dest(), Some(Reg::x(4)));
    }

    #[test]
    fn sources_hide_x0_and_unary_rs2() {
        let i = Inst::Alu {
            op: AluOp::Add,
            rd: Reg::x(1),
            rs1: Reg::ZERO,
            rs2: Reg::x(2),
        };
        assert_eq!(i.sources(), [None, Some(Reg::x(2))]);
        let f = Inst::Fpu {
            op: FpuOp::Fsqrt,
            rd: Reg::f(1),
            rs1: Reg::f(2),
            rs2: Reg::f(9),
        };
        assert_eq!(f.sources(), [Some(Reg::f(2)), None]);
    }

    #[test]
    fn store_sources_order() {
        let s = Inst::Store {
            width: MemWidth::B8,
            src: Reg::x(7),
            base: Reg::x(8),
            offset: 16,
        };
        assert_eq!(s.sources(), [Some(Reg::x(8)), Some(Reg::x(7))]);
        assert_eq!(s.dest(), None);
        assert!(s.is_store() && s.is_mem() && !s.is_load());
    }

    #[test]
    fn classes() {
        assert_eq!(Inst::NOP.class(), InstClass::IntAlu);
        assert_eq!(
            Inst::Alu {
                op: AluOp::Div,
                rd: Reg::x(1),
                rs1: Reg::x(2),
                rs2: Reg::x(3)
            }
            .class(),
            InstClass::IntMulDiv
        );
        assert_eq!(Inst::Halt.class(), InstClass::Halt);
        assert_eq!(
            Inst::Jal {
                rd: Reg::ZERO,
                offset: -2
            }
            .class(),
            InstClass::Jump
        );
    }

    #[test]
    fn direct_target_computation() {
        let b = Inst::Branch {
            cond: BranchCond::Eq,
            rs1: Reg::x(1),
            rs2: Reg::x(2),
            offset: -3,
        };
        assert_eq!(b.direct_target(0x1000), Some(0x1000 - 12));
        let j = Inst::Jal {
            rd: Reg::ZERO,
            offset: 5,
        };
        assert_eq!(j.direct_target(0x1000), Some(0x1000 + 20));
        assert_eq!(Inst::Halt.direct_target(0x1000), None);
        let jr = Inst::Jalr {
            rd: Reg::ZERO,
            base: Reg::x(1),
            offset: 0,
        };
        assert_eq!(jr.direct_target(0x1000), None);
        assert!(jr.is_indirect());
    }
}
