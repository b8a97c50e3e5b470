//! Randomized property tests for the ISA: encode/decode round-trips, `li`
//! expansion correctness, ALU semantics, and sparse-memory invariants.
//! Driven by the workspace's deterministic PRNG (fixed seeds, so failures
//! reproduce exactly); build with `--features ext` for more cases.

use sst_isa::{
    assemble, decode, disasm, encode, AluOp, Asm, BranchCond, FpuOp, Inst, Interp, MemWidth, Reg,
    SparseMem,
};
use sst_prng::Prng;

fn cases(base: usize) -> usize {
    if cfg!(feature = "ext") {
        base * 8
    } else {
        base
    }
}

fn arb_reg(r: &mut Prng) -> Reg {
    Reg::from_index(r.gen_range(0..64u8)).unwrap()
}

const ALU_OPS: [AluOp; 16] = [
    AluOp::Add,
    AluOp::Sub,
    AluOp::And,
    AluOp::Or,
    AluOp::Xor,
    AluOp::Sll,
    AluOp::Srl,
    AluOp::Sra,
    AluOp::Slt,
    AluOp::Sltu,
    AluOp::Mul,
    AluOp::Mulh,
    AluOp::Div,
    AluOp::Divu,
    AluOp::Rem,
    AluOp::Remu,
];

const WIDTHS: [MemWidth; 4] = [MemWidth::B1, MemWidth::B2, MemWidth::B4, MemWidth::B8];

const CONDS: [BranchCond; 6] = [
    BranchCond::Eq,
    BranchCond::Ne,
    BranchCond::Lt,
    BranchCond::Ge,
    BranchCond::Ltu,
    BranchCond::Geu,
];

const FPU_OPS: [FpuOp; 12] = [
    FpuOp::Fadd,
    FpuOp::Fsub,
    FpuOp::Fmul,
    FpuOp::Fdiv,
    FpuOp::Fmin,
    FpuOp::Fmax,
    FpuOp::Fsqrt,
    FpuOp::Feq,
    FpuOp::Flt,
    FpuOp::Fle,
    FpuOp::CvtIntToF,
    FpuOp::CvtFToInt,
];

fn arb_alu_op(r: &mut Prng) -> AluOp {
    ALU_OPS[r.gen_range(0..ALU_OPS.len())]
}

/// Encodable instructions with in-range immediates.
fn arb_inst(r: &mut Prng) -> Inst {
    match r.gen_range(0..11u32) {
        0 => Inst::Alu {
            op: arb_alu_op(r),
            rd: arb_reg(r),
            rs1: arb_reg(r),
            rs2: arb_reg(r),
        },
        1 => {
            let op = arb_alu_op(r);
            let imm = r.gen_range(-2048i64..=2047);
            // Respect per-op immediate domains.
            let imm = match op {
                AluOp::And | AluOp::Or | AluOp::Xor => imm.rem_euclid(4096),
                AluOp::Sll | AluOp::Srl | AluOp::Sra => imm.rem_euclid(64),
                _ => imm,
            };
            Inst::AluImm {
                op,
                rd: arb_reg(r),
                rs1: arb_reg(r),
                imm,
            }
        }
        2 => Inst::Lui {
            rd: arb_reg(r),
            imm: r.gen_range(-131072i64..=131071),
        },
        3 => {
            let width = WIDTHS[r.gen_range(0..WIDTHS.len())];
            let signed = if width == MemWidth::B8 {
                true
            } else {
                r.gen::<bool>()
            };
            Inst::Load {
                width,
                signed,
                rd: arb_reg(r),
                base: arb_reg(r),
                offset: r.gen_range(-2048i64..=2047),
            }
        }
        4 => Inst::Store {
            width: WIDTHS[r.gen_range(0..WIDTHS.len())],
            src: arb_reg(r),
            base: arb_reg(r),
            offset: r.gen_range(-2048i64..=2047),
        },
        5 => Inst::Branch {
            cond: CONDS[r.gen_range(0..CONDS.len())],
            rs1: arb_reg(r),
            rs2: arb_reg(r),
            offset: r.gen_range(-2048i64..=2047),
        },
        6 => Inst::Jal {
            rd: arb_reg(r),
            offset: r.gen_range(-131072i64..=131071),
        },
        7 => Inst::Jalr {
            rd: arb_reg(r),
            base: arb_reg(r),
            offset: r.gen_range(-2048i64..=2047),
        },
        8 => {
            let op = FPU_OPS[r.gen_range(0..FPU_OPS.len())];
            let rs2 = if op.is_unary() { Reg::ZERO } else { arb_reg(r) };
            Inst::Fpu {
                op,
                rd: arb_reg(r),
                rs1: arb_reg(r),
                rs2,
            }
        }
        9 => Inst::Prefetch {
            base: arb_reg(r),
            offset: r.gen_range(-2048i64..=2047),
        },
        _ => Inst::Halt,
    }
}

#[test]
fn encode_decode_roundtrip() {
    let mut r = Prng::seed_from_u64(0x15a_0001);
    for _ in 0..cases(512) {
        let inst = arb_inst(&mut r);
        let word = encode(inst).expect("generated instructions are encodable");
        let back = decode(word).expect("encoded words decode");
        assert_eq!(inst, back);
    }
}

#[test]
fn decode_never_panics() {
    let mut r = Prng::seed_from_u64(0x15a_0002);
    for _ in 0..cases(4096) {
        let word: u32 = r.gen();
        let _ = decode(word); // Ok or Err, but never a panic
    }
}

#[test]
fn decoded_reencodes_identically() {
    let mut r = Prng::seed_from_u64(0x15a_0003);
    for _ in 0..cases(4096) {
        let word: u32 = r.gen();
        if let Ok(inst) = decode(word) {
            // Decoded instructions must re-encode (possibly canonicalized,
            // e.g. unary FPU rs2), and the canonical form is a fixed point.
            let w2 = encode(inst).expect("decoded instructions are encodable");
            let i2 = decode(w2).expect("re-encoded word decodes");
            assert_eq!(inst, i2);
        }
    }
}

#[test]
fn li_loads_exact_value() {
    let mut r = Prng::seed_from_u64(0x15a_0004);
    for case in 0..cases(64) {
        // Mix raw 64-bit patterns with small and boundary values.
        let v: i64 = match case % 4 {
            0 => r.gen::<u64>() as i64,
            1 => r.gen_range(-4096i64..4096),
            2 => [i64::MIN, i64::MAX, 0, -1, 1 << 31, -(1 << 31)][case / 4 % 6],
            _ => (r.gen::<u64>() as i64) >> r.gen_range(0..64u32),
        };
        let mut a = Asm::new();
        a.li(Reg::x(1), v);
        a.halt();
        let p = a.finish().unwrap();
        let mut i = Interp::new(&p);
        i.run(64).unwrap();
        assert_eq!(i.state().read(Reg::x(1)) as i64, v, "li {v}");
    }
}

#[test]
fn alu_add_sub_inverse() {
    let mut r = Prng::seed_from_u64(0x15a_0005);
    for _ in 0..cases(512) {
        let (a, b): (u64, u64) = (r.gen(), r.gen());
        let sum = AluOp::Add.eval(a, b);
        assert_eq!(AluOp::Sub.eval(sum, b), a);
    }
}

#[test]
fn alu_shifts_mask_amount() {
    let mut r = Prng::seed_from_u64(0x15a_0006);
    for _ in 0..cases(512) {
        let (a, sh): (u64, u64) = (r.gen(), r.gen());
        assert_eq!(AluOp::Sll.eval(a, sh), AluOp::Sll.eval(a, sh & 0x3f));
        assert_eq!(AluOp::Srl.eval(a, sh), AluOp::Srl.eval(a, sh & 0x3f));
        assert_eq!(AluOp::Sra.eval(a, sh), AluOp::Sra.eval(a, sh & 0x3f));
    }
}

#[test]
fn slt_matches_signed_compare() {
    let mut r = Prng::seed_from_u64(0x15a_0007);
    for _ in 0..cases(512) {
        let (a, b): (i64, i64) = (r.gen(), r.gen());
        assert_eq!(AluOp::Slt.eval(a as u64, b as u64), (a < b) as u64);
        assert_eq!(BranchCond::Lt.eval(a as u64, b as u64), a < b);
    }
}

#[test]
fn sparse_mem_rw_roundtrip() {
    let mut r = Prng::seed_from_u64(0x15a_0008);
    for _ in 0..cases(256) {
        let addr = r.gen_range(0..u64::MAX - 8);
        let val: u64 = r.gen();
        let n = r.gen_range(1..=8u64);
        let mut m = SparseMem::new();
        m.write_le(addr, n, val);
        let mask = if n == 8 {
            u64::MAX
        } else {
            (1u64 << (8 * n)) - 1
        };
        assert_eq!(m.read_le(addr, n), val & mask);
    }
}

#[test]
fn sparse_mem_disjoint_writes_do_not_interfere() {
    let mut r = Prng::seed_from_u64(0x15a_0009);
    let mut done = 0;
    while done < cases(256) {
        let a = r.gen_range(0..1_000_000u64);
        let b = r.gen_range(0..1_000_000u64);
        if a.abs_diff(b) < 8 {
            continue;
        }
        done += 1;
        let (va, vb): (u64, u64) = (r.gen(), r.gen());
        let mut m = SparseMem::new();
        m.write_u64(a, va);
        m.write_u64(b, vb);
        assert_eq!(m.read_u64(a), va);
        assert_eq!(m.read_u64(b), vb);
    }
}

#[test]
fn disasm_reassembles_for_alu() {
    let mut r = Prng::seed_from_u64(0x15a_000a);
    for _ in 0..cases(256) {
        let inst = Inst::Alu {
            op: arb_alu_op(&mut r),
            rd: arb_reg(&mut r),
            rs1: arb_reg(&mut r),
            rs2: arb_reg(&mut r),
        };
        let text = format!("{}\nhalt\n", disasm(inst));
        let p = assemble(&text).expect("disassembly of ALU ops reassembles");
        assert_eq!(p.decode_all()[0], inst);
    }
}

#[test]
fn branch_eval_consistency() {
    let mut r = Prng::seed_from_u64(0x15a_000b);
    for _ in 0..cases(512) {
        use BranchCond::*;
        let cond = CONDS[r.gen_range(0..CONDS.len())];
        let (a, b): (u64, u64) = (r.gen(), r.gen());
        let res = cond.eval(a, b);
        let opposite = match cond {
            Eq => Ne,
            Ne => Eq,
            Lt => Ge,
            Ge => Lt,
            Ltu => Geu,
            Geu => Ltu,
        };
        assert_eq!(res, !opposite.eval(a, b));
    }
}
