//! Performance-ordering sanity: the qualitative shape of the paper's
//! results must hold on the canonical workload — per-thread performance
//! improves monotonically from in-order → scout → EA → SST on
//! miss-dominated code with independent work available, and nobody beats
//! anybody meaningfully on cache-resident code.

use sst_core::{SstConfig, SstCore};
use sst_isa::{Asm, Program, Reg};
use sst_mem::{MemConfig, MemSystem};
use sst_uarch::Core;

fn run_core(mut core: impl Core, p: &Program, max: u64) -> (u64, u64) {
    let mut mem = MemSystem::new(&MemConfig::default(), 1);
    p.load_into(mem.mem_mut());
    while !core.halted() && core.cycle() < max {
        core.tick(&mut mem.bus(0));
    }
    assert!(core.halted(), "did not finish");
    (core.cycle(), core.retired())
}

fn cycles_for(p: &Program, which: &str) -> u64 {
    let max = 50_000_000;
    match which {
        "inorder" => run_core(SstCore::new(SstConfig::in_order(), 0, p), p, max).0,
        "scout" => run_core(SstCore::new(SstConfig::scout(), 0, p), p, max).0,
        "ea" => run_core(SstCore::new(SstConfig::execute_ahead(), 0, p), p, max).0,
        "sst" => run_core(SstCore::new(SstConfig::sst(), 0, p), p, max).0,
        other => panic!("unknown core {other}"),
    }
}

/// Random-index loads into a huge table (MLP-rich: every iteration's miss
/// is independent), each followed by a short dependent computation.
fn mlp_rich_misses() -> Program {
    let mut a = Asm::new();
    let logsize = 24; // 16 MiB table, way beyond L2
    let table = a.reserve(1 << logsize);
    a.la(Reg::x(20), table);
    a.li(Reg::x(1), 88172645463325252u64 as i64); // xorshift state
    a.li(Reg::x(2), 400); // iterations
    a.li(Reg::x(10), 0);
    let top = a.here();
    // next pseudo-random index
    a.slli(Reg::x(3), Reg::x(1), 13);
    a.xor(Reg::x(1), Reg::x(1), Reg::x(3));
    a.srli(Reg::x(3), Reg::x(1), 7);
    a.xor(Reg::x(1), Reg::x(1), Reg::x(3));
    a.slli(Reg::x(3), Reg::x(1), 17);
    a.xor(Reg::x(1), Reg::x(1), Reg::x(3));
    // addr = table + (state & mask) aligned to 8
    a.li(Reg::x(4), (1i64 << logsize) - 8);
    a.and(Reg::x(5), Reg::x(1), Reg::x(4));
    a.andi(Reg::x(6), Reg::x(5), 0xff8);
    a.add(Reg::x(5), Reg::x(5), Reg::x(6)); // scramble a bit
    a.and(Reg::x(5), Reg::x(5), Reg::x(4));
    a.add(Reg::x(5), Reg::x(5), Reg::x(20));
    a.ld(Reg::x(7), Reg::x(5), 0); // independent miss
                                   // dependent work behind the miss
    a.add(Reg::x(10), Reg::x(10), Reg::x(7));
    a.xor(Reg::x(11), Reg::x(10), Reg::x(7));
    a.addi(Reg::x(2), Reg::x(2), -1);
    a.bne(Reg::x(2), Reg::ZERO, top);
    a.halt();
    a.finish().unwrap()
}

/// Cache-resident compute kernel: everybody should be within a few percent.
fn cache_resident() -> Program {
    let mut a = Asm::new();
    let buf = a.reserve(8 * 1024);
    // Warm the buffer so the measured loop runs out of the L1 on every
    // model (the cold misses are paid identically by all of them).
    a.la(Reg::x(1), buf);
    a.li(Reg::x(2), 128);
    let warm = a.here();
    a.ld(Reg::x(3), Reg::x(1), 0);
    a.addi(Reg::x(1), Reg::x(1), 64);
    a.addi(Reg::x(2), Reg::x(2), -1);
    a.bne(Reg::x(2), Reg::ZERO, warm);
    a.la(Reg::x(1), buf);
    a.li(Reg::x(2), 20000);
    let top = a.here();
    a.andi(Reg::x(3), Reg::x(2), 1023);
    a.slli(Reg::x(3), Reg::x(3), 3);
    a.add(Reg::x(4), Reg::x(1), Reg::x(3));
    a.ld(Reg::x(5), Reg::x(4), 0);
    a.add(Reg::x(5), Reg::x(5), Reg::x(2));
    a.sd(Reg::x(5), Reg::x(4), 0);
    a.addi(Reg::x(2), Reg::x(2), -1);
    a.bne(Reg::x(2), Reg::ZERO, top);
    a.halt();
    a.finish().unwrap()
}

#[test]
fn sst_family_ordering_on_misses() {
    let p = mlp_rich_misses();
    let inorder = cycles_for(&p, "inorder");
    let scout = cycles_for(&p, "scout");
    let ea = cycles_for(&p, "ea");
    let sst = cycles_for(&p, "sst");
    eprintln!("inorder={inorder} scout={scout} ea={ea} sst={sst}");

    // Scout prefetches ahead: clearly better than in-order.
    assert!(
        (scout as f64) < inorder as f64 * 0.9,
        "scout {scout} should beat in-order {inorder}"
    );
    // EA retains results: at least as good as scout.
    assert!(
        (ea as f64) <= scout as f64 * 1.05,
        "ea {ea} should not lose to scout {scout}"
    );
    // SST overlaps replay with the ahead thread: at least as good as EA.
    assert!(
        (sst as f64) <= ea as f64 * 1.02,
        "sst {sst} should not lose to ea {ea}"
    );
    // And the full mechanism should be a large win over in-order.
    assert!(
        (sst as f64) < inorder as f64 * 0.7,
        "sst {sst} should be a big win over in-order {inorder}"
    );
}

#[test]
fn no_penalty_on_cache_resident_code() {
    let p = cache_resident();
    let inorder = cycles_for(&p, "inorder");
    let sst = cycles_for(&p, "sst");
    eprintln!("inorder={inorder} sst={sst}");
    let ratio = sst as f64 / inorder as f64;
    assert!(
        (0.9..=1.1).contains(&ratio),
        "sst ({sst}) should match in-order ({inorder}) when everything hits"
    );
}
