//! Randomized-program co-simulation: structured random programs (random
//! dataflow, memory traffic with aliasing, data-dependent branches, calls)
//! run on every core model and must match the functional reference
//! instruction-for-instruction. This hunts for speculation bugs that
//! hand-written tests miss.

use sst_isa::{Asm, Interp, Label, Program, Reg, SnapWriter, StopReason};
use sst_prng::Prng;
use sst_sim::{CoreModel, System};
use sst_workloads::{Scale, Workload};

/// Builds a random but always-terminating program.
fn random_program(seed: u64) -> Program {
    let mut r = Prng::seed_from_u64(seed);
    let mut a = Asm::new();

    // A small near buffer (aliasing traffic) and a big far region (misses).
    let near = a.reserve(512);
    let far_nodes = 2048u64;
    let far = {
        // Random far pointers written host-side.
        let words: Vec<u64> = (0..far_nodes).map(|_| r.gen()).collect();
        a.data_u64(&words)
    };

    a.la(Reg::x(20), near);
    a.la(Reg::x(21), far);
    // Seed some registers.
    for i in 1..12u8 {
        a.li(Reg::x(i), r.gen_range(-1000..1000));
    }
    a.li(Reg::x(31), r.gen_range(30..80)); // outer loop count

    let helper: Option<Label> = if r.gen_bool(0.5) {
        Some(a.label())
    } else {
        None
    };

    let top = a.here();
    let block_count = r.gen_range(3..9);
    for _ in 0..block_count {
        match r.gen_range(0..10) {
            0..=2 => {
                // Random ALU on random registers.
                let ops = [
                    sst_isa::AluOp::Add,
                    sst_isa::AluOp::Sub,
                    sst_isa::AluOp::Xor,
                    sst_isa::AluOp::And,
                    sst_isa::AluOp::Or,
                    sst_isa::AluOp::Sll,
                    sst_isa::AluOp::Mul,
                ];
                let op = ops[r.gen_range(0..ops.len())];
                let rd = Reg::x(r.gen_range(1..15));
                let rs1 = Reg::x(r.gen_range(0..15));
                let rs2 = Reg::x(r.gen_range(0..15));
                if op == sst_isa::AluOp::Sll {
                    a.slli(rd, rs1, r.gen_range(0..8));
                } else {
                    a.alu(op, rd, rs1, rs2);
                }
            }
            3..=4 => {
                // Near store + load (frequent aliasing, forwarding).
                let off = r.gen_range(0..60i64) * 8;
                let src = Reg::x(r.gen_range(1..15));
                let dst = Reg::x(r.gen_range(1..15));
                if r.gen_bool(0.3) {
                    a.sb(src, Reg::x(20), off + r.gen_range(0..8i64));
                } else {
                    a.sd(src, Reg::x(20), off);
                }
                a.ld(dst, Reg::x(20), off);
            }
            5..=6 => {
                // Far load (likely miss) into a live register; mask it into
                // a bounded offset to keep later memory traffic in range.
                let rd = Reg::x(r.gen_range(12..15));
                let idx = Reg::x(r.gen_range(1..12));
                a.andi(Reg::x(15), idx, ((far_nodes - 1) * 8) as i64 & 0xff8);
                a.add(Reg::x(15), Reg::x(15), Reg::x(21));
                a.ld(rd, Reg::x(15), 0);
            }
            7 => {
                // Data-dependent branch over a small hammock.
                let skip = a.label();
                let cond = Reg::x(r.gen_range(1..15));
                a.andi(Reg::x(16), cond, 1);
                a.beq(Reg::x(16), Reg::ZERO, skip);
                a.addi(Reg::x(17), Reg::x(17), 1);
                a.xor(Reg::x(18), Reg::x(17), cond);
                a.bind(skip);
            }
            8 => {
                // Occasional call.
                if let Some(h) = helper {
                    a.call(h);
                }
            }
            _ => {
                // Long-latency op.
                let rd = Reg::x(r.gen_range(1..15));
                let rs = Reg::x(r.gen_range(1..15));
                if r.gen_bool(0.5) {
                    a.mul(rd, rs, Reg::x(r.gen_range(1..15)));
                } else {
                    a.div(rd, rs, Reg::x(r.gen_range(1..15)));
                }
            }
        }
    }
    a.addi(Reg::x(31), Reg::x(31), -1);
    a.bne(Reg::x(31), Reg::ZERO, top);
    a.halt();
    if let Some(h) = helper {
        a.bind(h);
        a.addi(Reg::x(19), Reg::x(19), 3);
        a.xor(Reg::x(18), Reg::x(19), Reg::x(18));
        a.ret();
    }
    a.finish().expect("random program assembles")
}

#[test]
fn random_programs_cosim_on_all_models() {
    for seed in 0..24u64 {
        let p = random_program(seed);
        for model in CoreModel::lineup() {
            let label = model.label();
            // Wrap the raw program as a workload-like run.
            let w = Workload {
                name: "fuzz",
                class: sst_workloads::Class::Micro,
                program: p.clone(),
                skip_insts: 0,
                description: "randomized program",
            };
            System::new(model, &w)
                .run_checked(500_000_000)
                .unwrap_or_else(|e| panic!("seed {seed} on {label}: {e}"));
        }
    }
    // Silence the unused import if Scale goes unused in future edits.
    let _ = Scale::Smoke;
}

#[test]
fn random_programs_with_tiny_structures() {
    use sst_core::SstConfig;
    // Tiny DQ/STB/checkpoint configurations exercise every stall path.
    let configs = [
        SstConfig {
            dq_entries: 2,
            stb_entries: 1,
            ..SstConfig::sst()
        },
        SstConfig {
            dq_entries: 3,
            stb_entries: 2,
            checkpoints: 1,
            ..SstConfig::execute_ahead()
        },
        SstConfig {
            dq_entries: 4,
            stb_entries: 2,
            checkpoints: 6,
            ..SstConfig::sst()
        },
    ];
    for seed in 0..12u64 {
        let p = random_program(seed + 1000);
        for cfg in &configs {
            let label = cfg.label();
            let w = Workload {
                name: "fuzz-tiny",
                class: sst_workloads::Class::Micro,
                program: p.clone(),
                skip_insts: 0,
                description: "randomized program, tiny structures",
            };
            System::new(CoreModel::CustomSst(cfg.clone()), &w)
                .run_checked(500_000_000)
                .unwrap_or_else(|e| panic!("seed {seed} on {label}: {e}"));
        }
    }
}

/// The interpreter's whole state: registers, PC, halt latch, retire count
/// and memory image.
fn image(i: &Interp) -> Vec<u8> {
    let mut w = SnapWriter::new();
    i.save_state(&mut w);
    w.into_bytes()
}

#[test]
fn random_programs_run_in_chunks_as_they_step() {
    for seed in (0..24u64).chain(1000..1012) {
        let p = random_program(seed);
        let mut stepped = Interp::new(&p);
        while !stepped.step().expect("random programs do not trap").halted {}
        for chunk in [1, 2, 3, 5, 64, 1000, u64::MAX] {
            let mut i = Interp::new(&p);
            while i.run(chunk).expect("random programs do not trap").stop != StopReason::Halt {}
            assert_eq!(image(&i), image(&stepped), "seed {seed}, chunks of {chunk}");
        }
    }
}
