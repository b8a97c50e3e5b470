//! Co-simulation of the SST core family against the functional golden
//! model: every architecturally committed instruction must match the
//! reference interpreter exactly — PC, instruction, register write — and
//! the commit stream must be dense and program-ordered. These tests drive
//! the speculation machinery through its hard paths: deferral chains,
//! store/load interaction under speculation, deferred branches that
//! mispredict (rollback), scout restarts, and multi-epoch SST overlap.

use sst_core::{SstConfig, SstCore};
use sst_isa::{Asm, Inst, Interp, Reg};
use sst_mem::{MemConfig, MemSystem};
use sst_uarch::Core;

fn all_configs() -> Vec<(&'static str, SstConfig)> {
    vec![
        ("scout", SstConfig::scout()),
        ("ea", SstConfig::execute_ahead()),
        ("sst", SstConfig::sst()),
        (
            "sst-4",
            SstConfig {
                checkpoints: 4,
                ..SstConfig::sst()
            },
        ),
        (
            "sst-smallq",
            SstConfig {
                dq_entries: 4,
                stb_entries: 2,
                ..SstConfig::sst()
            },
        ),
    ]
}

/// Runs `build`'s program on the given SST config and co-simulates every
/// commit against the interpreter. Returns (core, mem) for extra checks.
fn cosim(cfg: SstConfig, build: &dyn Fn(&mut Asm), max_cycles: u64) -> (SstCore, MemSystem) {
    let mut a = Asm::new();
    build(&mut a);
    let p = a.finish().unwrap();
    let mut mem = MemSystem::new(&MemConfig::default(), 1);
    p.load_into(mem.mem_mut());
    let mut core = SstCore::new(cfg, 0, &p);
    let mut interp = Interp::new(&p);
    let mut checked: u64 = 0;
    let mut commits = Vec::new();

    while !core.halted() && core.cycle() < max_cycles {
        core.tick(&mut mem.bus(0));
        core.drain_commits_into(&mut commits);
        for c in commits.drain(..) {
            let ev = interp.step().expect("interp ok");
            checked += 1;
            assert_eq!(c.seq, checked, "commit stream must be dense");
            assert_eq!(c.pc, ev.pc, "pc diverged at commit {checked}");
            assert_eq!(c.inst, ev.inst, "inst diverged at commit {checked}");
            assert_eq!(
                c.reg_write, ev.reg_write,
                "register write diverged at commit {checked} (pc {:#x}, {:?})",
                c.pc, c.inst
            );
            if let Some((addr, bytes, value)) = c.store {
                match ev.mem {
                    sst_isa::MemEffect::Store {
                        addr: ea,
                        bytes: eb,
                        value: ev_,
                    } => {
                        assert_eq!((addr, bytes), (ea, eb), "store addr diverged");
                        let mask = if bytes == 8 {
                            u64::MAX
                        } else {
                            (1u64 << (bytes * 8)) - 1
                        };
                        assert_eq!(value & mask, ev_ & mask, "store value diverged");
                    }
                    other => panic!("core stored but interp did {other:?}"),
                }
            }
        }
    }
    assert!(
        core.halted(),
        "program did not finish in {max_cycles} cycles (retired {})",
        core.retired()
    );
    assert!(interp.is_halted(), "commit stream ended before the halt");
    assert!(checked > 0);
    (core, mem)
}

fn cosim_all(build: impl Fn(&mut Asm), max_cycles: u64) {
    for (name, cfg) in all_configs() {
        let build_ref: &dyn Fn(&mut Asm) = &build;
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cosim(cfg, build_ref, max_cycles)
        }))
        .unwrap_or_else(|e| panic!("config {name} failed: {e:?}"));
    }
}

/// Pointer chase with dependent work behind each miss — the canonical SST
/// workload: the chase load misses, its dependents defer, independent
/// counter work continues.
fn chase_with_work(a: &mut Asm) {
    let hops = 24u64;
    let stride = 1 << 20;
    let base = a.reserve(stride * (hops + 2));
    // Build chain.
    a.la(Reg::x(1), base);
    a.li(Reg::x(2), hops as i64);
    a.li(Reg::x(3), stride as i64);
    let w = a.here();
    a.add(Reg::x(4), Reg::x(1), Reg::x(3));
    a.sd(Reg::x(4), Reg::x(1), 0);
    a.sd(Reg::x(2), Reg::x(1), 8); // payload
    a.mv(Reg::x(1), Reg::x(4));
    a.addi(Reg::x(2), Reg::x(2), -1);
    a.bne(Reg::x(2), Reg::ZERO, w);
    // Chase with dependent payload work + independent accumulation.
    a.la(Reg::x(1), base);
    a.li(Reg::x(2), hops as i64);
    a.li(Reg::x(10), 0); // dependent sum
    a.li(Reg::x(11), 0); // independent sum
    let c = a.here();
    a.ld(Reg::x(5), Reg::x(1), 8); // dependent on x1 (payload)
    a.add(Reg::x(10), Reg::x(10), Reg::x(5)); // dependent on the load
    a.ld(Reg::x(1), Reg::x(1), 0); // the chase itself
    a.addi(Reg::x(11), Reg::x(11), 3); // independent
    a.addi(Reg::x(11), Reg::x(11), 4); // independent
    a.addi(Reg::x(2), Reg::x(2), -1);
    a.bne(Reg::x(2), Reg::ZERO, c);
    a.halt();
}

#[test]
fn cosim_chase_with_work_all_models() {
    cosim_all(chase_with_work, 10_000_000);
}

#[test]
fn speculation_actually_engages() {
    let (core, _m) = cosim(SstConfig::sst(), &chase_with_work, 10_000_000);
    assert!(core.stats.episodes > 0, "no speculative episode started");
    assert!(core.stats.deferred > 0, "nothing was deferred");
    assert!(core.stats.replayed > 0, "nothing was replayed");
    assert!(core.stats.epochs_committed > 0, "no epoch committed");
}

#[test]
fn scout_rolls_back_instead_of_committing() {
    let (core, _m) = cosim(SstConfig::scout(), &chase_with_work, 10_000_000);
    assert!(core.stats.scout_rollbacks > 0, "scout never rolled back");
    assert_eq!(
        core.stats.epochs_committed, 0,
        "scout must not commit epochs"
    );
    assert!(core.stats.fail_branch == 0);
}

/// Stores under speculation: a missing load gates the address of a store,
/// later loads to the same region must see the right values.
#[test]
fn cosim_deferred_store_address() {
    cosim_all(
        |a| {
            let stride = 1 << 20;
            let slots = 8u64;
            let table = a.reserve(stride * (slots + 1));
            let out = a.reserve(4096);
            // table[i] holds i*8 (an offset into out).
            a.la(Reg::x(1), table);
            a.li(Reg::x(2), slots as i64);
            a.li(Reg::x(5), 0);
            let w = a.here();
            a.sd(Reg::x(5), Reg::x(1), 0);
            a.li(Reg::x(6), stride as i64);
            a.add(Reg::x(1), Reg::x(1), Reg::x(6));
            a.addi(Reg::x(5), Reg::x(5), 8);
            a.addi(Reg::x(2), Reg::x(2), -1);
            a.bne(Reg::x(2), Reg::ZERO, w);
            // For each slot: load offset (misses), store to out+offset
            // (address depends on miss), then load it back.
            a.la(Reg::x(1), table);
            a.la(Reg::x(3), out);
            a.li(Reg::x(2), slots as i64);
            a.li(Reg::x(10), 0);
            let c = a.here();
            a.ld(Reg::x(4), Reg::x(1), 0); // offset (misses)
            a.add(Reg::x(6), Reg::x(3), Reg::x(4)); // NT address
            a.li(Reg::x(7), 77);
            a.add(Reg::x(7), Reg::x(7), Reg::x(4)); // NT data
            a.sd(Reg::x(7), Reg::x(6), 0); // deferred store (addr+data NT)
            a.ld(Reg::x(8), Reg::x(6), 0); // load it back (NT address)
            a.add(Reg::x(10), Reg::x(10), Reg::x(8));
            a.li(Reg::x(9), stride as i64);
            a.add(Reg::x(1), Reg::x(1), Reg::x(9));
            a.addi(Reg::x(2), Reg::x(2), -1);
            a.bne(Reg::x(2), Reg::ZERO, c);
            a.halt();
        },
        20_000_000,
    );
}

/// Store-to-load forwarding during speculation: the forwarded value must be
/// the speculative one, not memory's.
#[test]
fn cosim_forwarding_under_speculation() {
    cosim_all(
        |a| {
            let stride = 1 << 20;
            let hops = 8u64;
            let chain = a.reserve(stride * (hops + 1));
            let scratch = a.reserve(64);
            a.la(Reg::x(1), chain);
            a.li(Reg::x(2), hops as i64);
            a.li(Reg::x(3), stride as i64);
            let w = a.here();
            a.add(Reg::x(4), Reg::x(1), Reg::x(3));
            a.sd(Reg::x(4), Reg::x(1), 0);
            a.mv(Reg::x(1), Reg::x(4));
            a.addi(Reg::x(2), Reg::x(2), -1);
            a.bne(Reg::x(2), Reg::ZERO, w);
            // Chase; behind each miss, store+reload a counter to scratch
            // (independent of the miss => executes ahead and forwards).
            a.la(Reg::x(1), chain);
            a.la(Reg::x(5), scratch);
            a.li(Reg::x(2), hops as i64);
            a.li(Reg::x(10), 0);
            let c = a.here();
            a.ld(Reg::x(1), Reg::x(1), 0); // miss
            a.sd(Reg::x(2), Reg::x(5), 0); // independent store
            a.ld(Reg::x(6), Reg::x(5), 0); // forwards from the store buffer
            a.add(Reg::x(10), Reg::x(10), Reg::x(6));
            a.sw(Reg::x(10), Reg::x(5), 8); // partial-width store
            a.lw(Reg::x(7), Reg::x(5), 8);
            a.add(Reg::x(10), Reg::x(10), Reg::x(7));
            a.addi(Reg::x(2), Reg::x(2), -1);
            a.bne(Reg::x(2), Reg::ZERO, c);
            a.halt();
        },
        20_000_000,
    );
    // The SST run must actually have forwarded.
    let (core, _m) = cosim(
        SstConfig::sst(),
        &|a: &mut Asm| {
            let stride = 1 << 20;
            let hops = 8u64;
            let chain = a.reserve(stride * (hops + 1));
            let scratch = a.reserve(64);
            a.la(Reg::x(1), chain);
            a.li(Reg::x(2), hops as i64);
            a.li(Reg::x(3), stride as i64);
            let w = a.here();
            a.add(Reg::x(4), Reg::x(1), Reg::x(3));
            a.sd(Reg::x(4), Reg::x(1), 0);
            a.mv(Reg::x(1), Reg::x(4));
            a.addi(Reg::x(2), Reg::x(2), -1);
            a.bne(Reg::x(2), Reg::ZERO, w);
            a.la(Reg::x(1), chain);
            a.la(Reg::x(5), scratch);
            a.li(Reg::x(2), hops as i64);
            let c = a.here();
            a.ld(Reg::x(1), Reg::x(1), 0);
            a.sd(Reg::x(2), Reg::x(5), 0);
            a.ld(Reg::x(6), Reg::x(5), 0);
            a.addi(Reg::x(2), Reg::x(2), -1);
            a.bne(Reg::x(2), Reg::ZERO, c);
            a.halt();
        },
        20_000_000,
    );
    assert!(
        core.stb_forwards() > 0,
        "no store-buffer forwarding happened"
    );
}

/// Deferred branches: branch direction depends on missing data and is
/// sometimes mispredicted -> rollback path must restore perfectly.
#[test]
fn cosim_deferred_branch_mispredicts() {
    let build = |a: &mut Asm| {
        let stride = 1 << 20;
        let n = 32u64;
        let table = a.reserve(stride * (n + 1));
        // table[i] = pseudo-random parity via xorshift, written with code.
        a.la(Reg::x(1), table);
        a.li(Reg::x(2), n as i64);
        a.li(Reg::x(7), 88172645463325252u64 as i64);
        let w = a.here();
        a.slli(Reg::x(8), Reg::x(7), 13);
        a.xor(Reg::x(7), Reg::x(7), Reg::x(8));
        a.srli(Reg::x(8), Reg::x(7), 7);
        a.xor(Reg::x(7), Reg::x(7), Reg::x(8));
        a.slli(Reg::x(8), Reg::x(7), 17);
        a.xor(Reg::x(7), Reg::x(7), Reg::x(8));
        a.andi(Reg::x(9), Reg::x(7), 1);
        a.sd(Reg::x(9), Reg::x(1), 0);
        a.li(Reg::x(6), stride as i64);
        a.add(Reg::x(1), Reg::x(1), Reg::x(6));
        a.addi(Reg::x(2), Reg::x(2), -1);
        a.bne(Reg::x(2), Reg::ZERO, w);
        // Walk: branch on the (missing) loaded value.
        a.la(Reg::x(1), table);
        a.li(Reg::x(2), n as i64);
        a.li(Reg::x(10), 0);
        a.li(Reg::x(11), 0);
        let c = a.here();
        a.ld(Reg::x(4), Reg::x(1), 0); // misses; branch below defers
        let odd = a.label();
        let join = a.label();
        a.bne(Reg::x(4), Reg::ZERO, odd);
        a.addi(Reg::x(10), Reg::x(10), 1);
        a.j(join);
        a.bind(odd);
        a.addi(Reg::x(11), Reg::x(11), 1);
        a.bind(join);
        a.li(Reg::x(6), stride as i64);
        a.add(Reg::x(1), Reg::x(1), Reg::x(6));
        a.addi(Reg::x(2), Reg::x(2), -1);
        a.bne(Reg::x(2), Reg::ZERO, c);
        a.halt();
    };
    cosim_all(build, 50_000_000);
    let (core, _m) = cosim(SstConfig::sst(), &build, 50_000_000);
    assert!(
        core.stats.fail_branch > 0,
        "random deferred branches must sometimes fail"
    );
}

/// Deep dependence chains across multiple misses (stresses multi-epoch SST
/// and re-deferral).
#[test]
fn cosim_multi_miss_dependence_chains() {
    cosim_all(
        |a| {
            let stride = 1 << 20;
            let hops = 20u64;
            let base = a.reserve(stride * (hops + 2));
            a.la(Reg::x(1), base);
            a.li(Reg::x(2), hops as i64);
            a.li(Reg::x(3), stride as i64);
            let w = a.here();
            a.add(Reg::x(4), Reg::x(1), Reg::x(3));
            a.sd(Reg::x(4), Reg::x(1), 0);
            a.mv(Reg::x(1), Reg::x(4));
            a.addi(Reg::x(2), Reg::x(2), -1);
            a.bne(Reg::x(2), Reg::ZERO, w);
            // Two interleaved chases + cross-chain arithmetic.
            a.la(Reg::x(1), base);
            a.la(Reg::x(5), base);
            a.li(Reg::x(2), (hops / 2) as i64);
            a.li(Reg::x(10), 0);
            let c = a.here();
            a.ld(Reg::x(1), Reg::x(1), 0);
            a.ld(Reg::x(5), Reg::x(5), 0);
            a.ld(Reg::x(6), Reg::x(1), 0); // depends on chase 1
            a.add(Reg::x(10), Reg::x(10), Reg::x(6));
            a.xor(Reg::x(11), Reg::x(1), Reg::x(5)); // depends on both
            a.add(Reg::x(10), Reg::x(10), Reg::x(11));
            a.addi(Reg::x(2), Reg::x(2), -1);
            a.bne(Reg::x(2), Reg::ZERO, c);
            a.halt();
        },
        50_000_000,
    );
}

/// Tiny DQ and store buffer: stall paths engage but correctness holds.
#[test]
fn cosim_tiny_structures_stall_not_break() {
    let cfg = SstConfig {
        dq_entries: 2,
        stb_entries: 1,
        ..SstConfig::sst()
    };
    let (core, _m) = cosim(cfg, &chase_with_work, 50_000_000);
    assert!(core.stats.stall_dq_full > 0 || core.stats.stall_stb_full > 0);
}

/// Call/return and indirect jumps under speculation.
#[test]
fn cosim_calls_under_speculation() {
    cosim_all(
        |a| {
            let stride = 1 << 20;
            let hops = 8u64;
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

            let helper = a.label();
            a.la(Reg::x(1), base);
            a.li(Reg::x(2), hops as i64);
            a.li(Reg::x(10), 0);
            let c = a.here();
            a.ld(Reg::x(1), Reg::x(1), 0); // miss
            a.call(helper); // call behind the miss
            a.addi(Reg::x(2), Reg::x(2), -1);
            a.bne(Reg::x(2), Reg::ZERO, c);
            a.halt();
            a.bind(helper);
            a.addi(Reg::x(10), Reg::x(10), 5);
            a.ret();
        },
        20_000_000,
    );
}

/// The EA-mode suspension path: with one checkpoint the ahead thread must
/// stop during replay, and still co-simulate.
#[test]
fn ea_suspends_during_replay() {
    let (core, _m) = cosim(SstConfig::execute_ahead(), &chase_with_work, 10_000_000);
    assert!(
        core.stats.stall_ea_replay > 0,
        "EA never suspended the ahead thread"
    );
    assert!(core.stats.epochs_committed > 0);
}

/// Cache-resident code never speculates: SST behaves exactly like an
/// in-order core on L1-hitting workloads.
#[test]
fn no_speculation_when_everything_hits() {
    let (core, _m) = cosim(
        SstConfig::sst(),
        &|a: &mut Asm| {
            let buf = a.reserve(256);
            a.la(Reg::x(1), buf);
            a.li(Reg::x(2), 200);
            let top = a.here();
            a.sd(Reg::x(2), Reg::x(1), 0);
            a.ld(Reg::x(3), Reg::x(1), 0);
            a.add(Reg::x(4), Reg::x(4), Reg::x(3));
            a.addi(Reg::x(2), Reg::x(2), -1);
            a.bne(Reg::x(2), Reg::ZERO, top);
            a.halt();
        },
        1_000_000,
    );
    // The very first touch of the buffer misses (cold), so one episode is
    // allowed; after warm-up there must be essentially no deferral.
    assert!(
        core.stats.episodes <= 3,
        "episodes: {}",
        core.stats.episodes
    );
}

/// Halt right after a miss: the halt must wait for the epoch to resolve.
#[test]
fn halt_waits_for_outstanding_speculation() {
    cosim_all(
        |a| {
            let far = a.reserve(1 << 21);
            a.la(Reg::x(1), far);
            a.ld(Reg::x(2), Reg::x(1), 0); // cold miss
            a.add(Reg::x(3), Reg::x(2), Reg::x(2)); // dependent
            a.halt();
        },
        1_000_000,
    );
}

/// Back-to-back epochs reusing checkpoints.
#[test]
fn checkpoint_reuse_across_episodes() {
    let (core, _m) = cosim(SstConfig::sst(), &chase_with_work, 10_000_000);
    assert!(
        core.stats.episodes >= 1,
        "expected at least one episode, got {}",
        core.stats.episodes
    );
    assert!(
        core.stats.epochs_committed >= 2,
        "expected multiple committed epochs, got {}",
        core.stats.epochs_committed
    );
    let _ = core.stats.overlapped_misses;
}

/// Commit-mode instructions count: total committed == dynamic instruction
/// count of the interpreter.
#[test]
fn committed_count_matches_functional_count() {
    let mut a = Asm::new();
    chase_with_work(&mut a);
    let p = a.finish().unwrap();
    let mut interp = Interp::new(&p);
    let functional = interp.run(u64::MAX).unwrap().steps;

    for (_, cfg) in all_configs() {
        let mut mem = MemSystem::new(&MemConfig::default(), 1);
        p.load_into(mem.mem_mut());
        let mut core = SstCore::new(cfg, 0, &p);
        let mut commits = Vec::new();
        while !core.halted() && core.cycle() < 50_000_000 {
            core.tick(&mut mem.bus(0));
            core.drain_commits_into(&mut commits);
        }
        core.drain_commits_into(&mut commits);
        assert_eq!(commits.len() as u64, functional);
    }
    // Silence unused-inst warning pattern.
    let _ = Inst::Halt;
}
