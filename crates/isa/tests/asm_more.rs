//! Extended assembler coverage: every mnemonic, operand forms, error
//! reporting, and data-directive layout.

use sst_isa::{assemble, AluOp, BranchCond, FpuOp, Inst, Interp, MemWidth, Reg, StopReason};

fn one(src: &str) -> Inst {
    let full = format!("{src}\nhalt\n");
    assemble(&full)
        .unwrap_or_else(|e| panic!("{src}: {e}"))
        .decode_all()[0]
}

#[test]
fn every_alu_mnemonic_parses() {
    for (m, op) in [
        ("add", AluOp::Add),
        ("sub", AluOp::Sub),
        ("and", AluOp::And),
        ("or", AluOp::Or),
        ("xor", AluOp::Xor),
        ("sll", AluOp::Sll),
        ("srl", AluOp::Srl),
        ("sra", AluOp::Sra),
        ("slt", AluOp::Slt),
        ("sltu", AluOp::Sltu),
        ("mul", AluOp::Mul),
        ("mulh", AluOp::Mulh),
        ("div", AluOp::Div),
        ("divu", AluOp::Divu),
        ("rem", AluOp::Rem),
        ("remu", AluOp::Remu),
    ] {
        match one(&format!("{m} x1, x2, x3")) {
            Inst::Alu {
                op: o,
                rd,
                rs1,
                rs2,
            } => {
                assert_eq!(o, op, "{m}");
                assert_eq!((rd, rs1, rs2), (Reg::x(1), Reg::x(2), Reg::x(3)));
            }
            other => panic!("{m} parsed to {other:?}"),
        }
    }
}

#[test]
fn every_imm_mnemonic_parses() {
    for (m, op, imm) in [
        ("addi", AluOp::Add, -5i64),
        ("andi", AluOp::And, 255),
        ("ori", AluOp::Or, 16),
        ("xori", AluOp::Xor, 1),
        ("slli", AluOp::Sll, 3),
        ("srli", AluOp::Srl, 4),
        ("srai", AluOp::Sra, 5),
        ("slti", AluOp::Slt, -1),
        ("sltiu", AluOp::Sltu, 9),
    ] {
        match one(&format!("{m} x4, x5, {imm}")) {
            Inst::AluImm { op: o, imm: i, .. } => {
                assert_eq!(o, op, "{m}");
                assert_eq!(i, imm, "{m}");
            }
            other => panic!("{m} parsed to {other:?}"),
        }
    }
}

#[test]
fn every_load_store_mnemonic_parses() {
    let loads = [
        ("lb", MemWidth::B1, true),
        ("lbu", MemWidth::B1, false),
        ("lh", MemWidth::B2, true),
        ("lhu", MemWidth::B2, false),
        ("lw", MemWidth::B4, true),
        ("lwu", MemWidth::B4, false),
        ("ld", MemWidth::B8, true),
    ];
    for (m, w, s) in loads {
        match one(&format!("{m} x1, -8(x2)")) {
            Inst::Load {
                width,
                signed,
                offset,
                ..
            } => {
                assert_eq!((width, signed, offset), (w, s, -8), "{m}");
            }
            other => panic!("{m} parsed to {other:?}"),
        }
    }
    for (m, w) in [
        ("sb", MemWidth::B1),
        ("sh", MemWidth::B2),
        ("sw", MemWidth::B4),
        ("sd", MemWidth::B8),
    ] {
        match one(&format!("{m} x1, 16(x2)")) {
            Inst::Store { width, offset, .. } => assert_eq!((width, offset), (w, 16), "{m}"),
            other => panic!("{m} parsed to {other:?}"),
        }
    }
    // FP aliases share the 8-byte form.
    match one("fld f1, 0(x2)") {
        Inst::Load { rd, .. } => assert_eq!(rd, Reg::f(1)),
        other => panic!("fld parsed to {other:?}"),
    }
    match one("fsd f3, 0(x2)") {
        Inst::Store { src, .. } => assert_eq!(src, Reg::f(3)),
        other => panic!("fsd parsed to {other:?}"),
    }
}

#[test]
fn every_branch_mnemonic_parses() {
    for (m, c) in [
        ("beq", BranchCond::Eq),
        ("bne", BranchCond::Ne),
        ("blt", BranchCond::Lt),
        ("bge", BranchCond::Ge),
        ("bltu", BranchCond::Ltu),
        ("bgeu", BranchCond::Geu),
    ] {
        let src = format!("t: nop\n {m} x1, x2, t\n halt\n");
        let p = assemble(&src).unwrap();
        match p.decode_all()[1] {
            Inst::Branch { cond, offset, .. } => {
                assert_eq!(cond, c, "{m}");
                assert_eq!(offset, -1, "{m}");
            }
            other => panic!("{m} parsed to {other:?}"),
        }
    }
}

#[test]
fn fpu_mnemonics_parse() {
    for (m, op) in [
        ("fadd", FpuOp::Fadd),
        ("fsub", FpuOp::Fsub),
        ("fmul", FpuOp::Fmul),
        ("fdiv", FpuOp::Fdiv),
        ("fmin", FpuOp::Fmin),
        ("fmax", FpuOp::Fmax),
        ("feq", FpuOp::Feq),
        ("flt", FpuOp::Flt),
        ("fle", FpuOp::Fle),
    ] {
        match one(&format!("{m} f1, f2, f3")) {
            Inst::Fpu { op: o, .. } => assert_eq!(o, op, "{m}"),
            other => panic!("{m} parsed to {other:?}"),
        }
    }
    for (m, op) in [
        ("fsqrt", FpuOp::Fsqrt),
        ("fcvt.d.l", FpuOp::CvtIntToF),
        ("fcvt.l.d", FpuOp::CvtFToInt),
    ] {
        match one(&format!("{m} f1, f2")) {
            Inst::Fpu { op: o, rs2, .. } => {
                assert_eq!(o, op, "{m}");
                assert_eq!(rs2, Reg::ZERO, "{m}: unary rs2 canonicalized");
            }
            other => panic!("{m} parsed to {other:?}"),
        }
    }
}

#[test]
fn wrong_operand_counts_are_reported_with_lines() {
    for (line, src) in [
        (1, "add x1, x2\n"),
        (2, "nop\nld x1\n"),
        (3, "nop\nnop\nbeq x1, x2\n"),
    ] {
        let e = assemble(src).unwrap_err();
        assert_eq!(e.line, line, "{src:?}");
        assert!(e.msg.contains("operand"), "{src:?}: {e}");
    }
}

#[test]
fn bad_registers_rejected() {
    for src in ["add x32, x1, x2\n", "add q1, x1, x2\n", "ld f32, 0(x1)\n"] {
        let e = assemble(src).unwrap_err();
        assert!(e.msg.contains("register"), "{src:?}: {e}");
    }
}

#[test]
fn byte_directive_range_checked() {
    assert!(assemble(".data\nb: .byte 255, -128, 0\n.text\nhalt\n").is_ok());
    let e = assemble(".data\nb: .byte 256\n.text\nhalt\n").unwrap_err();
    assert!(e.msg.contains("range"), "{e}");
}

#[test]
fn word32_and_f64_layout() {
    let p = assemble(
        ".data\nw: .word32 0x11223344, 0x55667788\nf: .f64 1.0\n.text\nla x1, w\nlwu x2, 0(x1)\nlwu x3, 4(x1)\nla x4, f\nld f0, 0(x4)\nhalt\n",
    )
    .unwrap();
    let mut i = Interp::new(&p);
    assert_eq!(i.run(100).unwrap().stop, StopReason::Halt);
    assert_eq!(i.state().read(Reg::x(2)), 0x11223344);
    assert_eq!(i.state().read(Reg::x(3)), 0x55667788);
    assert_eq!(f64::from_bits(i.state().read(Reg::f(0))), 1.0);
}

#[test]
fn bare_data_labels_bind_to_next_datum() {
    let p = assemble(".data\n.byte 1\nlbl:\n.word64 42\n.text\nla x1, lbl\nld x2, 0(x1)\nhalt\n")
        .unwrap();
    let mut i = Interp::new(&p);
    i.run(100).unwrap();
    assert_eq!(
        i.state().read(Reg::x(2)),
        42,
        "label respects the .word64 alignment"
    );
}

#[test]
fn comments_and_blank_lines_ignored() {
    let p = assemble(
        "# leading comment\n\n  ; semicolon comment\nli x1, 3 # trailing\n\nhalt ; done\n",
    )
    .unwrap();
    let mut i = Interp::new(&p);
    i.run(10).unwrap();
    assert_eq!(i.state().read(Reg::x(1)), 3);
}

#[test]
fn prefetch_parses_and_is_neutral() {
    match one("prefetch 32(x7)") {
        Inst::Prefetch { base, offset } => {
            assert_eq!(base, Reg::x(7));
            assert_eq!(offset, 32);
        }
        other => panic!("prefetch parsed to {other:?}"),
    }
}
