//! Functional-unit execution latencies, shared by every core model so that
//! arithmetic timing never confounds the core comparisons.

use sst_isa::{AluOp, FpuOp, Inst};
use sst_mem::Cycle;

/// Execution latency table.
///
/// Loads and stores are *not* covered here — their latency comes from the
/// memory hierarchy. All units are fully pipelined except divide/sqrt,
/// which cores may model as blocking (the table only supplies latencies).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExecLatency {
    /// Simple integer ALU (add/logic/shift/compare).
    pub int_alu: Cycle,
    /// Integer multiply.
    pub int_mul: Cycle,
    /// Integer divide/remainder.
    pub int_div: Cycle,
    /// FP add/sub/min/max/compare/convert.
    pub fp_simple: Cycle,
    /// FP multiply.
    pub fp_mul: Cycle,
    /// FP divide / square root.
    pub fp_div: Cycle,
    /// Branch/jump resolution.
    pub branch: Cycle,
}

impl Default for ExecLatency {
    fn default() -> ExecLatency {
        ExecLatency {
            int_alu: 1,
            int_mul: 6,
            int_div: 24,
            fp_simple: 3,
            fp_mul: 4,
            fp_div: 20,
            branch: 1,
        }
    }
}

impl ExecLatency {
    /// Latency of a (non-memory) instruction.
    #[inline]
    pub fn of(&self, inst: Inst) -> Cycle {
        match inst {
            Inst::Alu { op, .. } | Inst::AluImm { op, .. } => match op {
                AluOp::Mul | AluOp::Mulh => self.int_mul,
                AluOp::Div | AluOp::Divu | AluOp::Rem | AluOp::Remu => self.int_div,
                _ => self.int_alu,
            },
            Inst::Lui { .. } => self.int_alu,
            Inst::Fpu { op, .. } => match op {
                FpuOp::Fmul => self.fp_mul,
                FpuOp::Fdiv | FpuOp::Fsqrt => self.fp_div,
                _ => self.fp_simple,
            },
            Inst::Branch { .. } | Inst::Jal { .. } | Inst::Jalr { .. } => self.branch,
            // Address generation for memory ops; the access itself is timed
            // by the hierarchy.
            Inst::Load { .. } | Inst::Store { .. } | Inst::Prefetch { .. } => self.int_alu,
            Inst::Halt => 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sst_isa::Reg;

    #[test]
    fn class_latencies() {
        let l = ExecLatency::default();
        assert_eq!(l.of(Inst::NOP), 1);
        assert_eq!(
            l.of(Inst::Alu {
                op: AluOp::Div,
                rd: Reg::x(1),
                rs1: Reg::x(2),
                rs2: Reg::x(3)
            }),
            24
        );
        assert_eq!(
            l.of(Inst::Fpu {
                op: FpuOp::Fsqrt,
                rd: Reg::f(1),
                rs1: Reg::f(2),
                rs2: Reg::ZERO
            }),
            20
        );
        assert_eq!(
            l.of(Inst::Fpu {
                op: FpuOp::Fadd,
                rd: Reg::f(1),
                rs1: Reg::f(2),
                rs2: Reg::f(3)
            }),
            3
        );
        assert_eq!(l.of(Inst::Halt), 1);
    }
}
