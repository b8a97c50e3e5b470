//! The issue queue and the load and store queues against the window they
//! are derived from.

use sst_isa::{Asm, Interp, Program, Reg, SnapReader, SnapWriter};
use sst_mem::{MemConfig, MemSystem};

use super::*;

/// Cells this far apart share no cache line, set or DRAM row.
const FAR: u64 = 1 << 20;

fn boot(cfg: OooConfig, build: impl FnOnce(&mut Asm)) -> (OooCore, MemSystem, Program) {
    let mut a = Asm::new();
    build(&mut a);
    let p = a.finish().unwrap();
    let mut mem = MemSystem::new(&MemConfig::default(), 1);
    p.load_into(mem.mem_mut());
    (OooCore::new(cfg, 0, &p), mem, p)
}

/// One tick, with the queues checked against the window in every build
/// profile and the commits checked against the reference interpreter.
/// Returns the tick's commits.
fn checked_tick(core: &mut OooCore, mem: &mut MemSystem, interp: &mut Interp) -> Vec<Commit> {
    core.tick(&mut mem.bus(0));
    assert!(core.counts_consistent(), "cycle {}", core.cycle);
    for c in &core.commits {
        let ev = interp.step().expect("reference runs");
        assert_eq!((c.pc, c.inst, c.reg_write), (ev.pc, ev.inst, ev.reg_write));
    }
    std::mem::take(&mut core.commits)
}

/// A three-deep pointer chain whose last load is still waiting to issue
/// when a store, resolved through an unrelated miss, finds that the younger
/// load of its address has already executed. The squash removes that load
/// and the add behind it — which reads the chain's result, so its number
/// sits in the wake list of a producer that survives, and the refetched
/// instructions are renamed under the same numbers.
#[test]
fn a_squash_leaves_numbers_in_a_surviving_wake_list_and_they_are_harmless() {
    let (mut core, mut mem, p) = boot(OooConfig::ooo_64(), |a| {
        let last = a.data_u64(&[5]);
        a.reserve(FAR);
        let middle = a.data_u64(&[last]);
        a.reserve(FAR);
        let first = a.data_u64(&[middle]);
        a.reserve(FAR);
        let zero = a.data_u64(&[0]);
        a.reserve(FAR);
        let out = a.reserve(64);
        a.la(Reg::x(1), first);
        a.la(Reg::x(3), out);
        a.la(Reg::x(20), zero);
        a.li(Reg::x(7), 99);
        a.ld(Reg::x(12), Reg::x(1), 0);
        a.ld(Reg::x(12), Reg::x(12), 0);
        a.ld(Reg::x(11), Reg::x(12), 0); // waits two misses before it issues
        a.ld(Reg::x(4), Reg::x(20), 0); // one miss
        a.add(Reg::x(6), Reg::x(3), Reg::x(4));
        a.sd(Reg::x(7), Reg::x(6), 0); // address known after one miss
        a.ld(Reg::x(8), Reg::x(3), 0); // same address, executes at once
        a.add(Reg::x(9), Reg::x(8), Reg::x(11));
        a.add(Reg::x(10), Reg::x(9), Reg::x(9));
        a.halt();
    });
    let mut interp = Interp::new(&p);
    while core.stats.violations == 0 {
        assert!(core.cycle < 10_000, "the store never caught the load");
        checked_tick(&mut core, &mut mem, &mut interp);
    }
    // Numbers above `core.seq` belong to nothing in the window any more.
    let left_behind = core
        .rob
        .iter()
        .filter(|e| e.state == EntryState::Waiting)
        .filter_map(|e| e.dest_phys)
        .flat_map(|p| core.wakers[p as usize].iter())
        .filter(|&&s| s > core.seq)
        .count();
    assert!(left_behind > 0, "the chain's consumer was squashed");
    while !core.halted {
        assert!(core.cycle < 10_000);
        checked_tick(&mut core, &mut mem, &mut interp);
    }
    assert!(interp.is_halted());
    assert_eq!(core.future_value(Reg::x(10)), 2 * (99 + 5));
}

/// Two passes over a load and 200 instructions that hang off it; each
/// pass loads another cold line. The first pass also has to fetch its text
/// from DRAM, so only the second fills the window behind the miss.
fn dependent_chain(a: &mut Asm) {
    let cells = a.reserve(2 * FAR);
    a.la(Reg::x(1), cells);
    a.li(Reg::x(2), 2);
    a.li(Reg::x(3), FAR as i64);
    let pass = a.here();
    a.ld(Reg::x(5), Reg::x(1), 0);
    for _ in 0..200 {
        a.addi(Reg::x(5), Reg::x(5), 1);
    }
    a.add(Reg::x(1), Reg::x(1), Reg::x(3));
    a.addi(Reg::x(2), Reg::x(2), -1);
    a.bne(Reg::x(2), Reg::ZERO, pass);
    a.halt();
}

/// Work counter: while the issue queue is full of instructions that all
/// hang off one DRAM miss, an issue scan reads no window entry at all, and
/// over the whole run it reads exactly the entries it issues (this program
/// never holds a ready instruction back for a port or for store data).
#[test]
fn a_scan_reads_only_the_window_entries_it_issues() {
    let cfg = OooConfig::ooo_128();
    let iq_entries = cfg.iq_entries;
    let (mut core, mut mem, p) = boot(cfg, dependent_chain);
    let mut interp = Interp::new(&p);
    while core.n_waiting < iq_entries {
        assert!(core.cycle < 10_000, "the queue never filled");
        checked_tick(&mut core, &mut mem, &mut interp);
    }
    // The first add knows when the load's data arrives; the others wait
    // for a producer to issue and are not even on the select list.
    assert_eq!(core.iq.len(), 1);
    let miss_returns = core.iq[0].ready_at;
    assert!(miss_returns > core.cycle + 50);
    let (reads, issued) = (core.issue_rob_reads, core.stats.issued);
    let mut parked = 0;
    while core.cycle < miss_returns {
        // Straight at the scan: `tick` would not even call it before the
        // memo `issue_quiet_until` runs out.
        let now = core.cycle;
        core.issue(now, &mut mem.bus(0));
        checked_tick(&mut core, &mut mem, &mut interp);
        parked += 1;
    }
    assert!(parked > 50);
    assert_eq!((core.n_waiting, core.iq.len()), (iq_entries, 1));
    assert_eq!((core.issue_rob_reads, core.stats.issued), (reads, issued));
    while !core.halted {
        assert!(core.cycle < 10_000);
        checked_tick(&mut core, &mut mem, &mut interp);
    }
    assert_eq!(core.issue_rob_reads, core.stats.issued);
    assert_eq!(core.future_value(Reg::x(5)), 200);
}

fn save(core: &OooCore, mem: &MemSystem) -> Vec<u8> {
    let mut w = SnapWriter::new();
    core.save_state(&mut w);
    mem.save_state(&mut w);
    w.into_bytes()
}

/// The store and load queues with record numbers counted from the front,
/// which is what a restore (numbering from 0) rebuilds.
fn queues(c: &OooCore) -> (Vec<SqEntry>, Vec<LqEntry>) {
    let sq = c.sq.iter().map(|&s| SqEntry {
        loads_before: s.loads_before.wrapping_sub(c.lq_popped),
        ..s
    });
    let lq = c.lq.iter().map(|&l| LqEntry {
        stores_before: l.stores_before.wrapping_sub(c.sq_popped),
        ..l
    });
    (sq.collect(), lq.collect())
}

/// Restores a twin of `core` (booted on `build`) from a snapshot taken
/// now, checks that it rebuilt the derived queues to match, and runs both
/// to the halt, tick for tick.
fn restore_twin_and_run_both(core: &mut OooCore, mem: &mut MemSystem, build: fn(&mut Asm)) {
    let bytes = save(core, mem);
    let (mut twin, mut twin_mem, _) = boot(core.cfg.clone(), build);
    let mut r = SnapReader::new(&bytes);
    twin.restore_state(&mut r).unwrap();
    twin_mem.restore_state(&mut r).unwrap();
    r.finish().unwrap();
    assert!(twin.counts_consistent());
    assert_eq!((&twin.iq, queues(&twin)), (&core.iq, queues(core)));
    assert!(twin.wakers.iter().any(|l| !l.is_empty()));

    while !core.halted {
        assert!(core.cycle < 10_000);
        core.tick(&mut mem.bus(0));
        twin.tick(&mut twin_mem.bus(0));
        let cycle = core.cycle;
        assert_eq!((&twin.iq, queues(&twin)), (&core.iq, queues(core)), "cycle {cycle}");
        assert_eq!(twin.commits, core.commits);
    }
    assert_eq!(save(&twin, &twin_mem), save(core, mem));
}

/// The queue and the wake lists are not in the snapshot: a core restored
/// in the middle of a window rebuilds them and continues like the one that
/// was saved, cycle for cycle.
#[test]
fn a_window_saved_mid_flight_is_rebuilt_and_continues_identically() {
    let (mut core, mut mem, p) = boot(OooConfig::ooo_128(), dependent_chain);
    let mut interp = Interp::new(&p);
    while core.n_waiting < 40 {
        assert!(core.cycle < 10_000, "the queue never filled");
        checked_tick(&mut core, &mut mem, &mut interp);
    }
    restore_twin_and_run_both(&mut core, &mut mem, dependent_chain);
}

/// Two passes, each behind a cold load. A pass has 14 groups of a store
/// and a load of the same cell, a store and a load of another cell through
/// the cold load's result, and four adds; then a prefetch, 200 adds and a
/// lone load. Loads forward from their stores, except where a store waits
/// for its data and the load runs ahead: a memory-order violation. Behind
/// the second pass's miss the window fills with 28 stores and 30 loads and
/// prefetches in flight.
fn store_heavy(a: &mut Asm) {
    let cold = a.reserve(2 * FAR);
    let cells = a.reserve(4096);
    a.la(Reg::x(1), cold);
    a.la(Reg::x(3), cells);
    a.li(Reg::x(2), 2);
    a.li(Reg::x(4), FAR as i64);
    let pass = a.here();
    a.ld(Reg::x(5), Reg::x(1), 0);
    a.add(Reg::x(5), Reg::x(5), Reg::x(3));
    for i in 0..14 {
        let at = 16 * i;
        a.sd(Reg::x(2), Reg::x(3), at);
        a.ld(Reg::x(6), Reg::x(3), at);
        a.sd(Reg::x(6), Reg::x(5), at + 8);
        a.ld(Reg::x(7), Reg::x(5), at + 8);
        for _ in 0..4 {
            a.addi(Reg::x(8), Reg::x(8), 1);
        }
    }
    a.prefetch(Reg::x(3), 0);
    for _ in 0..200 {
        a.addi(Reg::x(9), Reg::x(9), 1);
    }
    a.ld(Reg::x(10), Reg::x(3), 8);
    a.add(Reg::x(1), Reg::x(1), Reg::x(4));
    a.addi(Reg::x(2), Reg::x(2), -1);
    a.bne(Reg::x(2), Reg::ZERO, pass);
    a.halt();
}

/// Saved with stores and loads in flight — some executed, some waiting,
/// one forwarded, one prefetch — a core's store and load queues come back
/// from the snapshot equal, and the twin stays identical tick for tick.
#[test]
fn a_window_saved_with_memory_in_flight_is_rebuilt_and_continues_identically() {
    let (mut core, mut mem, p) = boot(OooConfig::ooo_128(), store_heavy);
    let mut interp = Interp::new(&p);
    let busy = |c: &OooCore| {
        c.sq.len() >= 8
            && c.lq.len() >= 8
            && c.sq.iter().any(|s| s.executed)
            && c.sq.iter().any(|s| !s.executed)
            && c.lq.iter().any(|l| l.executed)
            && c.lq.iter().any(|l| !l.executed)
            && c.lq.iter().any(|l| l.forwarded_from.is_some())
            && c.rob.iter().any(|e| matches!(e.inst, Inst::Prefetch { .. }))
    };
    while !busy(&core) {
        assert!(core.cycle < 10_000, "the memory queues never filled");
        checked_tick(&mut core, &mut mem, &mut interp);
    }
    restore_twin_and_run_both(&mut core, &mut mem, store_heavy);
}

/// Work counter: every store-to-load check reads only the store and load
/// queues, never more records than the queue holds — on a store-heavy
/// program that fills the 128-entry window — and a load renamed behind a
/// long run of non-memory instructions, with no store in flight, reads
/// none at all.
#[test]
fn a_memory_order_check_reads_only_in_flight_stores_and_loads() {
    let (mut core, mut mem, p) = boot(OooConfig::ooo_128(), store_heavy);
    let mut interp = Interp::new(&p);
    let mut lone_loads = Vec::new();
    let mut non_mem_run = 0;
    while !core.halted {
        assert!(core.cycle < 10_000);
        for c in checked_tick(&mut core, &mut mem, &mut interp) {
            if c.inst.is_load() && non_mem_run >= 100 {
                lone_loads.push(c.seq);
            }
            non_mem_run = if c.inst.is_mem() { 0 } else { non_mem_run + 1 };
        }
    }
    // Both outcomes of both issue-time checks happen.
    let stats = core.stats;
    assert_eq!(stats.rob_high_water, 128);
    assert!(stats.forwards > 0 && stats.violations > 0, "{stats:?}");
    assert_eq!(lone_loads.len(), 2);

    let log = core.mem_order_reads.borrow();
    for &(seq, read, queue_len) in log.iter() {
        assert!(read <= queue_len, "check for {seq} read {read} of {queue_len}");
    }
    assert!(log.iter().any(|&(_, read, _)| read > 0));
    assert!(log.iter().any(|&(_, _, queue_len)| queue_len >= 20));
    for seq in lone_loads {
        let checks: Vec<_> = log.iter().filter(|c| c.0 == seq).collect();
        assert_eq!(checks.len(), 2, "rename and issue of {seq}");
        assert!(checks.iter().all(|c| c.1 == 0), "{checks:?}");
    }
}

/// Rename holds `lq_entries` against loads only: with the load queue full
/// of loads waiting on a miss, a prefetch still takes a record (one more
/// than `lq_entries`) and the load behind it stalls.
#[test]
fn a_prefetch_takes_a_load_queue_record_while_the_queue_is_full() {
    let cfg = OooConfig {
        lq_entries: 4,
        ..OooConfig::ooo_128()
    };
    let (mut core, mut mem, p) = boot(cfg, |a| {
        let cold = a.reserve(FAR);
        let cells = a.reserve(64);
        a.la(Reg::x(1), cold);
        a.la(Reg::x(3), cells);
        a.ld(Reg::x(5), Reg::x(1), 0);
        a.add(Reg::x(5), Reg::x(5), Reg::x(3));
        for _ in 0..3 {
            a.ld(Reg::x(6), Reg::x(5), 0);
        }
        a.prefetch(Reg::x(3), 8);
        a.ld(Reg::x(7), Reg::x(3), 16);
        a.halt();
    });
    let mut interp = Interp::new(&p);
    while core.stats.stall_lsq_full == 0 {
        assert!(core.cycle < 10_000, "the load queue never filled");
        checked_tick(&mut core, &mut mem, &mut interp);
    }
    let in_lq: Vec<Inst> = core
        .rob
        .iter()
        .filter(|e| core.lq.iter().any(|l| l.seq == e.seq))
        .map(|e| e.inst)
        .collect();
    assert_eq!(in_lq.len(), 5);
    assert!(in_lq[..4].iter().all(|i| i.is_load()));
    assert!(matches!(in_lq[4], Inst::Prefetch { .. }));
    assert_eq!(core.rob.back().unwrap().inst, in_lq[4]);
    while !core.halted {
        assert!(core.cycle < 10_000);
        checked_tick(&mut core, &mut mem, &mut interp);
    }
    assert!(interp.is_halted());
}

/// The queue finds a window entry by its distance from the head's number,
/// so a snapshot whose window numbers have a hole is refused, not indexed.
#[test]
fn a_window_with_a_hole_in_its_numbers_is_refused() {
    let (mut core, mut mem, p) = boot(OooConfig::ooo_128(), dependent_chain);
    let mut interp = Interp::new(&p);
    while core.rob.len() < 8 {
        assert!(core.cycle < 10_000, "the window never filled");
        checked_tick(&mut core, &mut mem, &mut interp);
    }
    core.rob[4].seq += 1;
    let bytes = save(&core, &mem);
    let (mut twin, _, _) = boot(OooConfig::ooo_128(), dependent_chain);
    let err = twin
        .restore_state(&mut SnapReader::new(&bytes))
        .unwrap_err();
    assert!(matches!(err, SnapError::Corrupt(_)), "{err:?}");
}
