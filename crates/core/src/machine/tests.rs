//! The deferred strand's derived state and host-side work, against the
//! entries and statistics they are derived from.

use sst_isa::{Asm, Interp, Program, Reg};
use sst_mem::{MemConfig, MemSystem};
use sst_workloads::{Scale, Workload};

use super::*;

/// Cells this far apart share no cache line, set or DRAM row.
const FAR: u64 = 1 << 20;

fn boot(cfg: SstConfig, p: &Program) -> (SstCore, MemSystem, Interp) {
    let mut mem = MemSystem::new(&MemConfig::default(), 1);
    p.load_into(mem.mem_mut());
    (SstCore::new(cfg, 0, p), mem, Interp::new(p))
}

fn assemble(build: impl FnOnce(&mut Asm)) -> Program {
    let mut a = Asm::new();
    build(&mut a);
    a.finish().unwrap()
}

/// One tick, with the derived state checked in every build profile and the
/// commits checked against the reference interpreter.
fn checked_tick(core: &mut SstCore, mem: &mut MemSystem, interp: &mut Interp) {
    core.tick(&mut mem.bus(0));
    assert!(core.deferred_state_consistent(), "cycle {}", core.cycle);
    for c in core.commits.drain(..) {
        let ev = interp.step().expect("reference runs");
        assert_eq!(
            (c.pc, c.inst, c.reg_write),
            (ev.pc, ev.inst, ev.reg_write),
            "seq {}",
            c.seq
        );
    }
}

fn run_to_halt(core: &mut SstCore, mem: &mut MemSystem, interp: &mut Interp) {
    while !core.halted {
        assert!(core.cycle < 5_000_000, "did not halt");
        checked_tick(core, mem, interp);
    }
    assert!(interp.is_halted(), "commit stream ended before the halt");
}

/// Work counters on the pointer chase, whose DQ holds up to 128 entries
/// that hang off one another behind a single miss: the walk this replaced
/// examined 62.8 entries per entry it executed.
#[test]
fn a_pass_reads_what_it_executes_and_commit_runs_on_events() {
    let w = Workload::by_name("chase", Scale::Smoke, 12345).unwrap();
    let (mut core, mut mem, mut interp) = boot(SstConfig::sst(), &w.program);
    run_to_halt(&mut core, &mut mem, &mut interp);
    let (work, stats) = (&core.work, &core.stats);
    assert!(stats.replayed > 1000 && stats.epochs_committed > 1);
    assert_eq!((stats.fail_branch, stats.scout_rollbacks), (0, 0));
    // A pass reads the entries it executes and no other. What else it
    // looks at is a word of the timed list: here one bypass stall ahead of
    // an execution, nothing passed over, and the wake at the end of a pass
    // is read off the same list.
    assert_eq!(work.entries_read, stats.replay_issued);
    assert!(work.entries_read <= work.listed && work.listed <= 2 * work.entries_read);
    // The commit test runs when the DQ's oldest entry has left or an epoch
    // has closed (or after a rollback; none here) — not three times a tick.
    assert!(work.commit_runs <= work.commit_events);
    assert!(work.commit_events <= stats.replayed + stats.epochs_committed);
    assert!(work.commit_runs >= stats.epochs_committed);
}

/// A chain of two misses (`x12`, then `x11` through it) and, younger, an
/// independent miss that opens a second epoch with two adds that hang off
/// `x11` and a branch on its own data. The branch resolves against its
/// prediction while the chain's second load is still out: the rollback
/// removes the adds, whose wake-list bits stay with the surviving load,
/// and the refetched adds get the same numbers and register there again.
#[test]
fn a_squash_leaves_numbers_on_a_surviving_wake_list_and_refetch_reuses_them() {
    let p = assemble(|a| {
        let last = a.data_u64(&[5]);
        a.reserve(FAR);
        let first = a.data_u64(&[last]);
        a.reserve(FAR);
        let zero = a.data_u64(&[0]);
        a.reserve(FAR);
        a.la(Reg::x(1), first);
        a.la(Reg::x(20), zero);
        a.ld(Reg::x(12), Reg::x(1), 0); // miss: first epoch
        a.ld(Reg::x(11), Reg::x(12), 0); // deferred, misses again at replay
        a.ld(Reg::x(4), Reg::x(20), 0); // miss: second epoch
        a.add(Reg::x(9), Reg::x(11), Reg::x(11));
        a.add(Reg::x(10), Reg::x(9), Reg::x(9));
        let wrong = a.label();
        // Not taken; a cold predictor says taken.
        a.bne(Reg::x(4), Reg::ZERO, wrong);
        a.halt();
        a.bind(wrong);
        let spin = a.here();
        a.addi(Reg::x(13), Reg::x(13), 1);
        a.j(spin);
    });
    let (mut core, mut mem, mut interp) = boot(SstConfig::sst(), &p);
    // The entries waiting for both operands: the adds.
    let adds = |core: &SstCore| -> Vec<(Seq, [Option<Seq>; 2])> {
        let waits = |e: &&DqEntry| e.waits_on(0) && e.waits_on(1);
        core.dq
            .iter()
            .filter(waits)
            .map(|e| (e.seq, e.producers))
            .collect()
    };
    let mut before = Vec::new();
    while core.stats.fail_branch == 0 {
        assert!(core.cycle < 10_000, "the branch never failed");
        before = adds(&core);
        checked_tick(&mut core, &mut mem, &mut interp);
    }
    // The chain's second load survives, re-deferred behind its own miss;
    // the adds that waited for it are gone.
    let survivor = core
        .dq
        .first_seq()
        .expect("the chain's second load is still out");
    assert_eq!(core.dq.len(), 1);
    assert_eq!(before.len(), 2, "{before:?}");
    assert_eq!(before[0].1, [Some(survivor), Some(survivor)]);
    assert!(before[0].0 > core.seq, "squashed");
    while adds(&core).len() < 2 {
        assert!(core.cycle < 10_000, "the adds were not refetched");
        checked_tick(&mut core, &mut mem, &mut interp);
    }
    assert_eq!(adds(&core), before, "same numbers, same producers");
    assert_eq!(core.dq.first_seq(), Some(survivor));
    run_to_halt(&mut core, &mut mem, &mut interp);
    assert_eq!(core.regs().value(Reg::x(10)), 20);
}

/// One-entry DQ, one-entry store buffer, one checkpoint (and two): every
/// list the deferred strand keeps is at its smallest, and the commit
/// stream still matches the reference.
#[test]
fn degenerate_sizes_cosim_clean() {
    for name in ["oltp", "g_store"] {
        let w = Workload::by_name(name, Scale::Smoke, 12345).unwrap();
        for checkpoints in [1, 2] {
            for retain_results in [true, false] {
                let cfg = SstConfig {
                    dq_entries: 1,
                    stb_entries: 1,
                    checkpoints,
                    retain_results,
                    ..SstConfig::sst()
                };
                let (mut core, mut mem, mut interp) = boot(cfg, &w.program);
                run_to_halt(&mut core, &mut mem, &mut interp);
                assert!(core.stats.deferred > 0, "{name}");
                assert_eq!(core.dq_high_water(), 1);
            }
        }
    }
}

/// Scout's policy is "discard": a deferral takes a DQ slot and builds no
/// entry. With a 1-entry and a 4-entry queue nearly every episode fills
/// it, so the ahead strand lives on the held-slot count — and the commit
/// stream still matches the reference.
#[test]
fn scout_holds_slots_and_queues_nothing() {
    for name in ["chase", "mcf", "mlp8", "g_store"] {
        let w = Workload::by_name(name, Scale::Smoke, 12345).unwrap();
        for dq_entries in [1, 4] {
            let cfg = SstConfig {
                dq_entries,
                ..SstConfig::scout()
            };
            let (mut core, mut mem, mut interp) = boot(cfg, &w.program);
            let mut full_cycles = 0u64;
            while !core.halted {
                assert!(core.cycle < 5_000_000, "{name}: did not halt");
                checked_tick(&mut core, &mut mem, &mut interp);
                assert_eq!(core.dq.iter().count(), 0, "{name}: scout queued an entry");
                assert!(core.in_speculation() || core.dq.is_empty(), "{name}: slots outlived the episode");
                full_cycles += core.dq.is_full() as u64;
            }
            assert!(interp.is_halted());
            let stats = &core.stats;
            assert!(stats.deferred > 0 && stats.scout_rollbacks > 0, "{name}");
            assert_eq!(core.dq.total_deferred, stats.deferred, "{name}");
            assert_eq!(core.dq_high_water(), dq_entries, "{name}");
            assert!(full_cycles > 0 && stats.stall_dq_full > 0, "{name}: the queue never filled");
            assert_eq!((stats.replayed, stats.epochs_committed), (0, 0), "{name}");
        }
    }
}

/// A prefetch takes a D-cache port as a load does: behind a load, on one
/// port, it issues a cycle later and the cycle between is a port stall.
#[test]
fn a_prefetch_behind_a_load_waits_for_the_port() {
    let p = assemble(|a| {
        a.ld(Reg::x(5), Reg::ZERO, 0x100);
        a.prefetch(Reg::ZERO, 0x400);
        a.halt();
    });
    let cfg = SstConfig {
        dcache_ports: 1,
        ..SstConfig::in_order()
    };
    let (mut core, mut mem, mut interp) = boot(cfg, &p);
    let mut issued = Vec::new();
    while !core.halted {
        assert!(core.cycle < 10_000, "did not halt");
        core.tick(&mut mem.bus(0));
        for c in core.commits.drain(..) {
            let ev = interp.step().expect("reference runs");
            assert_eq!((c.pc, c.inst), (ev.pc, ev.inst));
            issued.push(c.at);
        }
    }
    let [load, prefetch, _halt] = issued[..] else { panic!("{issued:?}") };
    assert_eq!(prefetch, load + 1, "issued at {issued:?}");
    assert_eq!(core.stats.stall_port, 1);
}

/// A replayed prefetch takes a D-cache port as a replayed load's first
/// access does. A load and a prefetch both hang off one missing load; on
/// one port they replay in the same pass, and the prefetch's access lands
/// a cycle after the load's.
#[test]
fn a_replayed_prefetch_waits_for_the_port() {
    let p = assemble(|a| {
        let cell = a.data_u64(&[0]);
        a.reserve(FAR);
        a.la(Reg::x(20), cell);
        a.ld(Reg::x(1), Reg::x(20), 0); // miss: x1 = 0
        a.add(Reg::x(3), Reg::x(1), Reg::x(20)); // deferred: x3 = cell
        a.ld(Reg::x(2), Reg::x(3), 0); // deferred; hits the filled line
        a.prefetch(Reg::x(3), 64); // deferred
        a.halt();
    });
    let cfg = SstConfig {
        dcache_ports: 1,
        ..SstConfig::sst()
    };
    let (mut core, mut mem, mut interp) = boot(cfg, &p);
    let mut at = Vec::new();
    while !core.halted {
        assert!(core.cycle < 10_000, "did not halt");
        core.tick(&mut mem.bus(0));
        for c in core.commits.drain(..) {
            let ev = interp.step().expect("reference runs");
            assert_eq!((c.pc, c.inst), (ev.pc, ev.inst));
            at.push((c.inst, c.at));
        }
    }
    assert!(core.stats.replayed >= 3, "{:?}", core.stats);
    let replayed = |f: fn(&Inst) -> bool| at.iter().rev().find(|(i, _)| f(i)).map(|&(_, c)| c);
    let load = replayed(|i| matches!(i, Inst::Load { rd, .. } if *rd == Reg::x(2))).unwrap();
    let prefetch = replayed(|i| matches!(i, Inst::Prefetch { .. })).unwrap();
    assert_eq!(prefetch, load + 1, "replayed at {at:?}");
}
