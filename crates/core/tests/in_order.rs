//! The in-order baseline, [`SstConfig::in_order`]: SST's pipeline with no
//! checkpoint, deferred queue or store buffer. It must co-simulate, stall
//! on the use of a miss, overlap independent misses, pay for
//! mispredictions — and never speculate.

use sst_core::{SstConfig, SstCore};
use sst_isa::{Asm, Interp, Program, Reg, StopReason};
use sst_mem::{MemConfig, MemSystem};
use sst_obs::Phase;
use sst_uarch::Core;
use sst_workloads::{Scale, Workload};

fn run_program(p: &Program, max_cycles: u64) -> (SstCore, MemSystem) {
    let mut mem = MemSystem::new(&MemConfig::default(), 1);
    p.load_into(mem.mem_mut());
    let mut core = SstCore::new(SstConfig::in_order(), 0, p);
    while !core.halted() && core.cycle() < max_cycles {
        core.tick(&mut mem.bus(0));
    }
    assert!(
        core.halted(),
        "program did not finish in {max_cycles} cycles"
    );
    (core, mem)
}

fn run(build: impl FnOnce(&mut Asm), max_cycles: u64) -> (SstCore, MemSystem, Program) {
    let mut a = Asm::new();
    build(&mut a);
    let p = a.finish().unwrap();
    let (core, mem) = run_program(&p, max_cycles);
    (core, mem, p)
}

/// Full co-simulation: every commit must match the interpreter step.
fn cosim(build: impl Fn(&mut Asm), max_cycles: u64) -> (SstCore, MemSystem) {
    let (mut core, mem, p) = run(&build, max_cycles);
    let mut interp = Interp::new(&p);
    let mut commits = Vec::new();
    core.drain_commits_into(&mut commits);
    assert!(!commits.is_empty());
    for (i, c) in commits.iter().enumerate() {
        let ev = interp.step().expect("interp ok");
        assert_eq!(c.pc, ev.pc, "commit {i}: pc mismatch");
        assert_eq!(c.inst, ev.inst, "commit {i}: inst mismatch");
        assert_eq!(
            c.reg_write, ev.reg_write,
            "commit {i} at pc {:#x}: register write mismatch",
            c.pc
        );
        assert_eq!(c.seq, i as u64 + 1, "commit seq must be dense");
    }
    assert!(interp.is_halted());
    (core, mem)
}

#[test]
fn cosim_arithmetic_loop() {
    cosim(
        |a| {
            a.li(Reg::x(5), 50);
            a.li(Reg::x(6), 0);
            let top = a.here();
            a.add(Reg::x(6), Reg::x(6), Reg::x(5));
            a.addi(Reg::x(5), Reg::x(5), -1);
            a.bne(Reg::x(5), Reg::ZERO, top);
            a.halt();
        },
        100_000,
    );
}

#[test]
fn cosim_memory_traffic() {
    cosim(
        |a| {
            let buf = a.reserve(4096);
            a.la(Reg::x(1), buf);
            a.li(Reg::x(2), 64);
            let top = a.here();
            a.sd(Reg::x(2), Reg::x(1), 0);
            a.ld(Reg::x(3), Reg::x(1), 0);
            a.add(Reg::x(4), Reg::x(4), Reg::x(3));
            a.addi(Reg::x(1), Reg::x(1), 8);
            a.addi(Reg::x(2), Reg::x(2), -1);
            a.bne(Reg::x(2), Reg::ZERO, top);
            a.halt();
        },
        1_000_000,
    );
}

#[test]
fn cosim_calls_and_fp() {
    cosim(
        |a| {
            let vals = a.data_u64(&[1.0f64, 2.0, 3.0, 4.0].map(f64::to_bits));
            a.la(Reg::x(10), vals);
            a.li(Reg::x(11), 4);
            let f = a.label();
            let top = a.here();
            a.ld(Reg::f(0), Reg::x(10), 0);
            a.call(f);
            a.addi(Reg::x(10), Reg::x(10), 8);
            a.addi(Reg::x(11), Reg::x(11), -1);
            a.bne(Reg::x(11), Reg::ZERO, top);
            a.halt();
            a.bind(f);
            a.fadd(Reg::f(1), Reg::f(1), Reg::f(0));
            a.fmul(Reg::f(2), Reg::f(1), Reg::f(1));
            a.ret();
        },
        1_000_000,
    );
}

#[test]
fn final_register_state_matches_interp() {
    let (core, _mem, p) = run(
        |a| {
            a.li(Reg::x(5), 1000);
            a.li(Reg::x(6), 7);
            a.mul(Reg::x(7), Reg::x(5), Reg::x(6));
            a.div(Reg::x(8), Reg::x(7), Reg::x(6));
            a.halt();
        },
        100_000,
    );
    let mut i = Interp::new(&p);
    assert_eq!(i.run(1000).unwrap().stop, StopReason::Halt);
    assert_eq!(core.regs().value(Reg::x(7)), i.state().read(Reg::x(7)));
    assert_eq!(core.regs().value(Reg::x(8)), i.state().read(Reg::x(8)));
}

#[test]
fn dependent_miss_chain_is_slow() {
    // Pointer chase: each load depends on the previous one. The
    // stall-on-use core must pay roughly the full memory latency per
    // hop.
    let hops = 16u64;
    let (core, mem, _p) = run(
        |a| {
            // Build a chain: node[i] -> node[i+1], 1 MiB apart.
            let stride = 1 << 20;
            // The chain is written by code first.
            let base = a.reserve(stride * (hops + 1));
            a.la(Reg::x(1), base);
            a.li(Reg::x(2), hops as i64);
            a.li(Reg::x(3), stride as i64);
            let w = a.here();
            a.add(Reg::x(4), Reg::x(1), Reg::x(3));
            a.sd(Reg::x(4), Reg::x(1), 0);
            a.mv(Reg::x(1), Reg::x(4));
            a.addi(Reg::x(2), Reg::x(2), -1);
            a.bne(Reg::x(2), Reg::ZERO, w);
            // Chase it.
            a.la(Reg::x(1), base);
            a.li(Reg::x(2), hops as i64);
            let c = a.here();
            a.ld(Reg::x(1), Reg::x(1), 0);
            a.addi(Reg::x(2), Reg::x(2), -1);
            a.bne(Reg::x(2), Reg::ZERO, c);
            a.halt();
        },
        10_000_000,
    );
    let st = mem.stats();
    assert!(st.dram_reads > hops, "chase misses in DRAM");
    assert!(
        core.stats.stall_operand > hops * 100,
        "stall-on-use dominated: {} stalls",
        core.stats.stall_operand
    );
}

#[test]
fn independent_misses_overlap() {
    // Two interleaved independent chases: MLP 2. Total time should be
    // well under 2x a single chase of the same total length.
    let build_two = |a: &mut Asm| {
        let stride = 1 << 20;
        let hops = 16u64;
        let base1 = a.reserve(stride * (hops + 1));
        let base2 = a.reserve(stride * (hops + 1));
        for base in [base1, base2] {
            a.la(Reg::x(1), base);
            a.li(Reg::x(2), hops as i64);
            a.li(Reg::x(3), stride as i64);
            let w = a.here();
            a.add(Reg::x(4), Reg::x(1), Reg::x(3));
            a.sd(Reg::x(4), Reg::x(1), 0);
            a.mv(Reg::x(1), Reg::x(4));
            a.addi(Reg::x(2), Reg::x(2), -1);
            a.bne(Reg::x(2), Reg::ZERO, w);
        }
        a.la(Reg::x(10), base1);
        a.la(Reg::x(11), base2);
        a.li(Reg::x(2), hops as i64);
        let c = a.here();
        a.ld(Reg::x(10), Reg::x(10), 0);
        a.ld(Reg::x(11), Reg::x(11), 0);
        a.addi(Reg::x(2), Reg::x(2), -1);
        a.bne(Reg::x(2), Reg::ZERO, c);
        a.halt();
    };
    let (core2, _m, _) = run(build_two, 10_000_000);

    // Serial version: one chain of 2*hops.
    let build_one = |a: &mut Asm| {
        let stride = 1 << 20;
        let hops = 32u64;
        let base = a.reserve(stride * (hops + 1));
        a.la(Reg::x(1), base);
        a.li(Reg::x(2), hops as i64);
        a.li(Reg::x(3), stride as i64);
        let w = a.here();
        a.add(Reg::x(4), Reg::x(1), Reg::x(3));
        a.sd(Reg::x(4), Reg::x(1), 0);
        a.mv(Reg::x(1), Reg::x(4));
        a.addi(Reg::x(2), Reg::x(2), -1);
        a.bne(Reg::x(2), Reg::ZERO, w);
        a.la(Reg::x(1), base);
        a.li(Reg::x(2), hops as i64);
        let c = a.here();
        a.ld(Reg::x(1), Reg::x(1), 0);
        a.addi(Reg::x(2), Reg::x(2), -1);
        a.bne(Reg::x(2), Reg::ZERO, c);
        a.halt();
    };
    let (core1, _m, _) = run(build_one, 10_000_000);
    assert!(
        (core2.cycle() as f64) < core1.cycle() as f64 * 0.8,
        "MLP-2 chase ({}) should beat serial chase ({})",
        core2.cycle(),
        core1.cycle()
    );
}

#[test]
fn mispredict_penalty_visible() {
    // Data-dependent unpredictable-ish branch pattern via xorshift.
    let (core, _m, _) = run(
        |a| {
            a.li(Reg::x(1), 88172645463325252u64 as i64);
            a.li(Reg::x(2), 2000); // iterations
            a.li(Reg::x(9), 0);
            let top = a.here();
            // xorshift64
            a.slli(Reg::x(3), Reg::x(1), 13);
            a.xor(Reg::x(1), Reg::x(1), Reg::x(3));
            a.srli(Reg::x(3), Reg::x(1), 7);
            a.xor(Reg::x(1), Reg::x(1), Reg::x(3));
            a.slli(Reg::x(3), Reg::x(1), 17);
            a.xor(Reg::x(1), Reg::x(1), Reg::x(3));
            a.andi(Reg::x(4), Reg::x(1), 1);
            let skip = a.label();
            a.beq(Reg::x(4), Reg::ZERO, skip);
            a.addi(Reg::x(9), Reg::x(9), 1);
            a.bind(skip);
            a.addi(Reg::x(2), Reg::x(2), -1);
            a.bne(Reg::x(2), Reg::ZERO, top);
            a.halt();
        },
        10_000_000,
    );
    assert!(
        core.stats.mispredicts > 200,
        "random branches mispredict: {}",
        core.stats.mispredicts
    );
}

#[test]
fn halted_core_stops_advancing_state() {
    let (mut core, mut mem, _p) = run(
        |a| {
            a.li(Reg::x(1), 5);
            a.halt();
        },
        10_000,
    );
    let retired = core.retired();
    for _ in 0..100 {
        core.tick(&mut mem.bus(0));
    }
    assert_eq!(core.retired(), retired);
}

/// Without a checkpoint no miss opens an episode: on every smoke workload
/// nothing defers, replays or rolls back, no structure is ever occupied,
/// and every cycle is a `normal` one.
#[test]
fn no_episode_and_no_deferral_on_the_smoke_workloads() {
    for name in Workload::all_names() {
        let w = Workload::by_name(name, Scale::Smoke, 12345).unwrap();
        let (core, _mem) = run_program(&w.program, 200_000_000);
        let s = &core.stats;
        assert_eq!(
            (s.episodes, s.epochs_committed, s.deferred, s.replay_issued),
            (0, 0, 0, 0),
            "{name}"
        );
        assert_eq!(
            (
                s.fail_branch,
                s.scout_rollbacks,
                s.stall_dq_full,
                s.stall_stb_full
            ),
            (0, 0, 0, 0),
            "{name}"
        );
        assert_eq!(
            (core.dq_high_water(), core.stb_high_water()),
            (0, 0),
            "{name}"
        );
        assert_eq!(core.phases().get(Phase::Normal), core.cycle(), "{name}");
    }
}
