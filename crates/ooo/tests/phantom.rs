//! Wrong-path phantom-prefetch behaviour: while fetch is blocked on a
//! mispredicted branch, independent future loads get prefetched, but
//! miss-dependent chains are poisoned (real wrong-path data would not
//! arrive in time).

use sst_isa::{Asm, Program, Reg};
use sst_mem::{MemConfig, MemSystem};
use sst_ooo::{OooConfig, OooCore};
use sst_uarch::Core;

fn run(p: &Program) -> (OooCore, MemSystem) {
    let mut mem = MemSystem::new(&MemConfig::default(), 1);
    p.load_into(mem.mem_mut());
    let mut core = OooCore::new(OooConfig::ooo_64(), 0, p);
    let mut commits = Vec::new();
    while !core.halted() && core.cycle() < 100_000_000 {
        core.tick(&mut mem.bus(0));
        core.drain_commits_into(&mut commits);
        commits.clear();
    }
    assert!(core.halted());
    (core, mem)
}

/// Mispredicted data-dependent branches in a loop whose future loads are
/// independent of the branch: the phantom walk must fire prefetches.
#[test]
fn wrong_path_prefetches_fire() {
    let mut a = Asm::new();
    let table = a.reserve(1 << 22);
    a.la(Reg::x(20), table);
    a.li(Reg::x(1), 88172645463325252u64 as i64);
    a.li(Reg::x(2), 400);
    let top = a.here();
    // xorshift -> random branch (mispredicts ~half the time)
    a.slli(Reg::x(3), Reg::x(1), 13);
    a.xor(Reg::x(1), Reg::x(1), Reg::x(3));
    a.srli(Reg::x(3), Reg::x(1), 7);
    a.xor(Reg::x(1), Reg::x(1), Reg::x(3));
    a.andi(Reg::x(4), Reg::x(1), 1);
    let skip = a.label();
    a.beq(Reg::x(4), Reg::ZERO, skip);
    a.addi(Reg::x(9), Reg::x(9), 1);
    a.bind(skip);
    // Independent far load (the wrong path can prefetch the next one).
    a.li(Reg::x(5), (1 << 22) - 8);
    a.and(Reg::x(6), Reg::x(1), Reg::x(5));
    a.add(Reg::x(6), Reg::x(6), Reg::x(20));
    a.ld(Reg::x(7), Reg::x(6), 0);
    a.add(Reg::x(8), Reg::x(8), Reg::x(7));
    a.addi(Reg::x(2), Reg::x(2), -1);
    a.bne(Reg::x(2), Reg::ZERO, top);
    a.halt();
    let p = a.finish().unwrap();
    let (core, _mem) = run(&p);
    assert!(
        core.stats.mispredicts > 50,
        "mispredicts: {}",
        core.stats.mispredicts
    );
    assert!(
        core.stats.wrong_path_prefetches > 50,
        "phantom walk fired: {}",
        core.stats.wrong_path_prefetches
    );
}

/// A miss-dependent pointer chain on the wrong path must NOT be fully
/// prefetched: the first hop misses and poisons the rest.
#[test]
fn dependent_chains_are_poisoned() {
    let mut a = Asm::new();
    // Build a 2-hop far chain per iteration, reached only after a
    // mispredicting branch.
    let stride = 1 << 20;
    let n = 64u64;
    let region = a.reserve(stride * (n + 2));
    // chain[i] -> chain[i+1], written by code.
    a.la(Reg::x(1), region);
    a.li(Reg::x(2), n as i64);
    a.li(Reg::x(3), stride as i64);
    let w = a.here();
    a.add(Reg::x(4), Reg::x(1), Reg::x(3));
    a.sd(Reg::x(4), Reg::x(1), 0);
    a.mv(Reg::x(1), Reg::x(4));
    a.addi(Reg::x(2), Reg::x(2), -1);
    a.bne(Reg::x(2), Reg::ZERO, w);

    a.la(Reg::x(1), region);
    a.li(Reg::x(2), (n / 2) as i64);
    a.li(Reg::x(10), 88172645463325252u64 as i64);
    let top = a.here();
    a.slli(Reg::x(3), Reg::x(10), 13);
    a.xor(Reg::x(10), Reg::x(10), Reg::x(3));
    a.srli(Reg::x(3), Reg::x(10), 7);
    a.xor(Reg::x(10), Reg::x(10), Reg::x(3));
    a.andi(Reg::x(4), Reg::x(10), 1);
    let skip = a.label();
    a.beq(Reg::x(4), Reg::ZERO, skip);
    a.addi(Reg::x(9), Reg::x(9), 1);
    a.bind(skip);
    a.ld(Reg::x(1), Reg::x(1), 0); // dependent chase hop (misses)
    a.ld(Reg::x(5), Reg::x(1), 8); // depends on the missing hop
    a.addi(Reg::x(2), Reg::x(2), -1);
    a.bne(Reg::x(2), Reg::ZERO, top);
    a.halt();
    let p = a.finish().unwrap();
    let (core, mem) = run(&p);
    // The second-hop loads must not all have been prefetched: DRAM demand
    // reads remain comparable to the chase length.
    let st = mem.stats();
    assert!(
        st.dram_reads >= n / 2,
        "chase still pays: {}",
        st.dram_reads
    );
    assert!(core.retired() > 0);
}

/// Phantom state resets between mispredict episodes (no stale shadow
/// values leaking across redirects) — checked implicitly by cosim in
/// tests/cosim.rs; here we verify the machine completes and prefetch
/// counts stay bounded by the walk limit per episode.
#[test]
fn phantom_walk_is_bounded_per_episode() {
    let mut a = Asm::new();
    a.li(Reg::x(1), 88172645463325252u64 as i64);
    a.li(Reg::x(2), 100);
    let top = a.here();
    a.slli(Reg::x(3), Reg::x(1), 13);
    a.xor(Reg::x(1), Reg::x(1), Reg::x(3));
    a.andi(Reg::x(4), Reg::x(1), 1);
    let skip = a.label();
    a.beq(Reg::x(4), Reg::ZERO, skip);
    a.addi(Reg::x(9), Reg::x(9), 1);
    a.bind(skip);
    a.addi(Reg::x(2), Reg::x(2), -1);
    a.bne(Reg::x(2), Reg::ZERO, top);
    a.halt();
    let p = a.finish().unwrap();
    let (core, _mem) = run(&p);
    // No loads at all: the walk can never prefetch.
    assert_eq!(core.stats.wrong_path_prefetches, 0);
}
