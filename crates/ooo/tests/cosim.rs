//! Co-simulation of the out-of-order baseline against the functional
//! golden model, on the same adversarial programs used for the SST core:
//! pointer chases, store/load aliasing (forwarding and violations),
//! unpredictable branches, and calls.

use sst_isa::{Asm, Interp, Reg};
use sst_mem::{MemConfig, MemSystem};
use sst_ooo::{OooConfig, OooCore};
use sst_uarch::Core;

fn cosim(cfg: OooConfig, build: &dyn Fn(&mut Asm), max_cycles: u64) -> OooCore {
    let mut a = Asm::new();
    build(&mut a);
    let p = a.finish().unwrap();
    let mut mem = MemSystem::new(&MemConfig::default(), 1);
    p.load_into(mem.mem_mut());
    let mut core = OooCore::new(cfg, 0, &p);
    let mut interp = Interp::new(&p);
    let mut checked = 0u64;
    let mut commits = Vec::new();
    while !core.halted() && core.cycle() < max_cycles {
        core.tick(&mut mem.bus(0));
        core.drain_commits_into(&mut commits);
        for c in commits.drain(..) {
            let ev = interp.step().expect("interp ok");
            checked += 1;
            assert_eq!(c.seq, checked, "dense commit stream");
            assert_eq!(c.pc, ev.pc, "pc diverged at {checked}");
            assert_eq!(c.inst, ev.inst, "inst diverged at {checked}");
            assert_eq!(
                c.reg_write, ev.reg_write,
                "register write diverged at {checked} (pc {:#x})",
                c.pc
            );
        }
    }
    assert!(core.halted(), "did not finish (retired {})", core.retired());
    assert!(interp.is_halted());
    core
}

fn cosim_all(build: impl Fn(&mut Asm), max_cycles: u64) {
    for cfg in [OooConfig::ooo_32(), OooConfig::ooo_64(), OooConfig::ooo_128()] {
        let label = cfg.label();
        let b: &dyn Fn(&mut Asm) = &build;
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| cosim(cfg, b, max_cycles)))
            .unwrap_or_else(|e| panic!("{label} failed: {e:?}"));
    }
}

fn chase_with_work(a: &mut Asm) {
    let hops = 24u64;
    let stride = 1 << 20;
    let base = a.reserve(stride * (hops + 2));
    a.la(Reg::x(1), base);
    a.li(Reg::x(2), hops as i64);
    a.li(Reg::x(3), stride as i64);
    let w = a.here();
    a.add(Reg::x(4), Reg::x(1), Reg::x(3));
    a.sd(Reg::x(4), Reg::x(1), 0);
    a.sd(Reg::x(2), Reg::x(1), 8);
    a.mv(Reg::x(1), Reg::x(4));
    a.addi(Reg::x(2), Reg::x(2), -1);
    a.bne(Reg::x(2), Reg::ZERO, w);
    a.la(Reg::x(1), base);
    a.li(Reg::x(2), hops as i64);
    a.li(Reg::x(10), 0);
    let c = a.here();
    a.ld(Reg::x(5), Reg::x(1), 8);
    a.add(Reg::x(10), Reg::x(10), Reg::x(5));
    a.ld(Reg::x(1), Reg::x(1), 0);
    a.addi(Reg::x(2), Reg::x(2), -1);
    a.bne(Reg::x(2), Reg::ZERO, c);
    a.halt();
}

#[test]
fn cosim_chase() {
    cosim_all(chase_with_work, 10_000_000);
}

#[test]
fn cosim_store_load_aliasing() {
    cosim_all(
        |a| {
            let buf = a.reserve(4096);
            a.la(Reg::x(1), buf);
            a.li(Reg::x(2), 300);
            a.li(Reg::x(10), 0);
            let top = a.here();
            // Same-address store/load pairs with varying widths.
            a.sd(Reg::x(2), Reg::x(1), 0);
            a.ld(Reg::x(3), Reg::x(1), 0);
            a.sw(Reg::x(3), Reg::x(1), 8);
            a.lw(Reg::x(4), Reg::x(1), 8);
            a.sb(Reg::x(4), Reg::x(1), 16);
            a.lbu(Reg::x(5), Reg::x(1), 16);
            a.add(Reg::x(10), Reg::x(10), Reg::x(5));
            a.addi(Reg::x(1), Reg::x(1), 8);
            a.andi(Reg::x(6), Reg::x(2), 511);
            a.la(Reg::x(7), buf);
            a.add(Reg::x(1), Reg::x(7), Reg::x(6));
            a.addi(Reg::x(2), Reg::x(2), -1);
            a.bne(Reg::x(2), Reg::ZERO, top);
            a.halt();
        },
        10_000_000,
    );
}

/// Address computed through a missing load gates a store, followed by a
/// load of the same address: exercises disambiguation speculation and the
/// violation squash path.
#[test]
fn cosim_violation_path() {
    let build = |a: &mut Asm| {
        let stride = 1 << 20;
        let n = 16u64;
        let table = a.reserve(stride * (n + 1));
        let out = a.reserve(4096);
        a.la(Reg::x(1), table);
        a.li(Reg::x(2), n as i64);
        a.li(Reg::x(5), 0);
        let w = a.here();
        a.sd(Reg::x(5), Reg::x(1), 0);
        a.li(Reg::x(6), stride as i64);
        a.add(Reg::x(1), Reg::x(1), Reg::x(6));
        a.addi(Reg::x(5), Reg::x(5), 8);
        a.addi(Reg::x(2), Reg::x(2), -1);
        a.bne(Reg::x(2), Reg::ZERO, w);
        a.la(Reg::x(1), table);
        a.la(Reg::x(3), out);
        a.li(Reg::x(2), n as i64);
        a.li(Reg::x(10), 0);
        let c = a.here();
        a.ld(Reg::x(4), Reg::x(1), 0); // miss: store addr unknown for a while
        a.add(Reg::x(6), Reg::x(3), Reg::x(4));
        a.li(Reg::x(7), 99);
        a.sd(Reg::x(7), Reg::x(6), 0); // slow-to-resolve store
        a.ld(Reg::x(8), Reg::x(3), 0); // may alias (when x4 == 0)
        a.add(Reg::x(10), Reg::x(10), Reg::x(8));
        a.li(Reg::x(9), stride as i64);
        a.add(Reg::x(1), Reg::x(1), Reg::x(9));
        a.addi(Reg::x(2), Reg::x(2), -1);
        a.bne(Reg::x(2), Reg::ZERO, c);
        a.halt();
    };
    cosim_all(build, 10_000_000);
}

#[test]
fn cosim_branchy_and_calls() {
    cosim_all(
        |a| {
            a.li(Reg::x(1), 88172645463325252u64 as i64);
            a.li(Reg::x(2), 500);
            a.li(Reg::x(10), 0);
            let helper = a.label();
            let top = a.here();
            a.slli(Reg::x(3), Reg::x(1), 13);
            a.xor(Reg::x(1), Reg::x(1), Reg::x(3));
            a.srli(Reg::x(3), Reg::x(1), 7);
            a.xor(Reg::x(1), Reg::x(1), Reg::x(3));
            a.andi(Reg::x(4), Reg::x(1), 1);
            let skip = a.label();
            a.beq(Reg::x(4), Reg::ZERO, skip);
            a.call(helper);
            a.bind(skip);
            a.addi(Reg::x(2), Reg::x(2), -1);
            a.bne(Reg::x(2), Reg::ZERO, top);
            a.halt();
            a.bind(helper);
            a.addi(Reg::x(10), Reg::x(10), 7);
            a.mul(Reg::x(11), Reg::x(10), Reg::x(10));
            a.ret();
        },
        10_000_000,
    );
}

#[test]
fn ooo_overlaps_independent_misses_better_than_window_allows_dependent() {
    // Independent misses: a 32-entry window covers several.
    let mut a = Asm::new();
    chase_with_work(&mut a);
    let p = a.finish().unwrap();
    let mut mem = MemSystem::new(&MemConfig::default(), 1);
    p.load_into(mem.mem_mut());
    let mut core = OooCore::new(OooConfig::ooo_64(), 0, &p);
    while !core.halted() && core.cycle() < 10_000_000 {
        core.tick(&mut mem.bus(0));
    }
    assert!(core.halted());
    assert!(core.stats.issued > 0);
    assert!(core.stats.rob_high_water > 8, "window actually fills");
}

#[test]
fn forwarding_happens() {
    let core = cosim(
        OooConfig::ooo_64(),
        &|a: &mut Asm| {
            let buf = a.reserve(64);
            a.la(Reg::x(1), buf);
            a.li(Reg::x(2), 100);
            let top = a.here();
            a.sd(Reg::x(2), Reg::x(1), 0);
            a.ld(Reg::x(3), Reg::x(1), 0); // back-to-back: forwards
            a.add(Reg::x(4), Reg::x(4), Reg::x(3));
            a.addi(Reg::x(2), Reg::x(2), -1);
            a.bne(Reg::x(2), Reg::ZERO, top);
            a.halt();
        },
        1_000_000,
    );
    assert!(core.stats.forwards > 50, "forwards: {}", core.stats.forwards);
}
