//! Additional interpreter and program-representation coverage: control
//! transfer edge semantics, width/extension matrices, disassembly of
//! every class, and Program helpers.

use sst_isa::{
    assemble, disasm, Asm, Inst, Interp, MemEffect, MemWidth, Program, Reg, StopReason,
};

#[test]
fn jalr_masks_low_bits() {
    let mut a = Asm::new();
    let target = a.label();
    // Compute target | 3 and jump through it: the low bits must be masked.
    a.li(Reg::x(1), 0); // patched below via la-equivalent at runtime
    let patch_idx = 0;
    let _ = patch_idx;
    a.halt(); // placeholder flow; real flow below
    a.bind(target);
    a.halt();
    let p0 = a.finish().unwrap();
    let tgt_pc = p0.text_base() + 8; // the bound halt

    let mut a = Asm::new();
    a.li(Reg::x(1), (tgt_pc | 3) as i64);
    a.jalr(Reg::x(5), Reg::x(1), 0);
    a.halt(); // skipped
    a.nop(); // tgt region filler — we rebuild with matching layout below
    let p = a.finish().unwrap();
    // The jalr target (tgt_pc|3)&!3 must be 4-aligned and inside text.
    let mut i = Interp::new(&p);
    i.step().unwrap(); // li (may be >1 inst; step until jalr)
    loop {
        let ev = i.step().unwrap();
        if matches!(ev.inst, Inst::Jalr { .. }) {
            assert_eq!(ev.next_pc % 4, 0, "jalr target aligned");
            break;
        }
    }
}

#[test]
fn jal_links_return_address() {
    let p = assemble(
        "main: jal x5, f\nhalt\nf: halt\n",
    )
    .unwrap();
    let mut i = Interp::new(&p);
    let ev = i.step().unwrap();
    assert_eq!(ev.reg_write, Some((Reg::x(5), p.entry + 4)));
    assert_eq!(ev.next_pc, p.entry + 8);
}

#[test]
fn store_width_matrix() {
    for (width, mask) in [
        (MemWidth::B1, 0xffu64),
        (MemWidth::B2, 0xffff),
        (MemWidth::B4, 0xffff_ffff),
        (MemWidth::B8, u64::MAX),
    ] {
        let mut a = Asm::new();
        let buf = a.reserve(16);
        a.la(Reg::x(1), buf);
        a.li(Reg::x(2), -1); // all ones
        a.store(width, Reg::x(2), Reg::x(1), 0);
        a.ld(Reg::x(3), Reg::x(1), 0);
        a.halt();
        let p = a.finish().unwrap();
        let mut i = Interp::new(&p);
        i.run(100).unwrap();
        assert_eq!(i.state().read(Reg::x(3)), mask, "{width:?}");
    }
}

#[test]
fn load_events_report_extended_value() {
    let mut a = Asm::new();
    let buf = a.data_u64(&[0xffff_ffff_ffff_ffff]);
    a.la(Reg::x(1), buf);
    a.lw(Reg::x(2), Reg::x(1), 0);
    a.halt();
    let p = a.finish().unwrap();
    let mut i = Interp::new(&p);
    loop {
        let ev = i.step().unwrap();
        if let MemEffect::Load { bytes, value, .. } = ev.mem {
            assert_eq!(bytes, 4);
            assert_eq!(value, u64::MAX, "sign-extended in the event");
            break;
        }
        assert!(!ev.halted, "no load seen");
    }
}

#[test]
fn disasm_covers_every_class() {
    let cases: Vec<(Inst, &str)> = vec![
        (Inst::NOP, "addi"),
        (
            Inst::Alu {
                op: sst_isa::AluOp::Xor,
                rd: Reg::x(1),
                rs1: Reg::x(2),
                rs2: Reg::x(3),
            },
            "xor x1, x2, x3",
        ),
        (
            Inst::Lui {
                rd: Reg::x(4),
                imm: -1,
            },
            "lui x4, -1",
        ),
        (
            Inst::Load {
                width: MemWidth::B2,
                signed: false,
                rd: Reg::x(1),
                base: Reg::x(2),
                offset: -4,
            },
            "lhu x1, -4(x2)",
        ),
        (
            Inst::Store {
                width: MemWidth::B4,
                src: Reg::x(5),
                base: Reg::SP,
                offset: 12,
            },
            "sw x5, 12(x2)",
        ),
        (
            Inst::Branch {
                cond: sst_isa::BranchCond::Ltu,
                rs1: Reg::x(1),
                rs2: Reg::x(2),
                offset: 5,
            },
            "bltu x1, x2, .+5",
        ),
        (
            Inst::Jal {
                rd: Reg::LINK,
                offset: -2,
            },
            "jal x1, .-2",
        ),
        (
            Inst::Jalr {
                rd: Reg::ZERO,
                base: Reg::LINK,
                offset: 0,
            },
            "jalr x0, 0(x1)",
        ),
        (
            Inst::Fpu {
                op: sst_isa::FpuOp::Fsqrt,
                rd: Reg::f(1),
                rs1: Reg::f(2),
                rs2: Reg::ZERO,
            },
            "fsqrt f1, f2",
        ),
        (
            Inst::Prefetch {
                base: Reg::x(9),
                offset: 64,
            },
            "prefetch 64(x9)",
        ),
        (Inst::Halt, "halt"),
    ];
    for (inst, expect) in cases {
        let text = disasm(inst);
        assert!(
            text.contains(expect.split(' ').next().unwrap()),
            "{inst:?} -> {text} (expected {expect})"
        );
        if expect.contains(' ') {
            assert_eq!(text, expect, "{inst:?}");
        }
    }
}

#[test]
fn program_helpers() {
    let mut a = Asm::new();
    a.nop();
    a.nop();
    a.halt();
    let p = a.finish().unwrap();
    assert_eq!(p.len_insts(), 3);
    assert!(p.image_bytes() >= 12);
    let all = p.decode_all();
    assert_eq!(all.len(), 3);
    assert_eq!(all[2], Inst::Halt);
    assert_eq!(Program::default().len_insts(), 0);
}

#[test]
fn run_to_exact_halt_count() {
    let p = assemble("li x1, 2\nloop: addi x1, x1, -1\nbne x1, x0, loop\nhalt\n").unwrap();
    let mut i = Interp::new(&p);
    let out = i.run(u64::MAX).unwrap();
    assert_eq!(out.stop, StopReason::Halt);
    assert_eq!(out.steps, 1 + 2 + 2 + 1); // li + two loop iterations + halt
    assert_eq!(i.retired(), out.steps);
}
