//! Randomized property tests for the branch-prediction structures, driven
//! by the workspace's deterministic PRNG (fixed seeds, reproducible
//! failures); build with `--features ext` for more cases.

use sst_branch::{Btb, Gshare, ReturnAddressStack};
use sst_prng::Prng;

fn cases(base: usize) -> usize {
    if cfg!(feature = "ext") {
        base * 8
    } else {
        base
    }
}

/// Gshare converges on any fixed short repeating pattern.
#[test]
fn gshare_learns_periodic_patterns() {
    let mut r = Prng::seed_from_u64(0xb7a_0002);
    for _ in 0..cases(32) {
        let pattern: Vec<bool> = (0..r.gen_range(1..6usize)).map(|_| r.gen()).collect();
        let mut p = Gshare::new(12);
        // Train several periods.
        for _ in 0..200 {
            for &d in &pattern {
                p.update(0x4000, d);
            }
        }
        // Measure one period.
        let mut correct = 0;
        let mut total = 0;
        for _ in 0..8 {
            for &d in &pattern {
                if p.predict(0x4000) == d {
                    correct += 1;
                }
                p.update(0x4000, d);
                total += 1;
            }
        }
        assert!(
            correct * 10 >= total * 9,
            "gshare should nail period-{} patterns: {}/{}",
            pattern.len(),
            correct,
            total
        );
    }
}

/// BTB: the most recent update for a PC always wins; lookups never return
/// a target stored for a different (non-aliasing) PC.
#[test]
fn btb_last_write_wins() {
    let mut r = Prng::seed_from_u64(0xb7a_0004);
    for _ in 0..cases(64) {
        let n = r.gen_range(1..50usize);
        let mut btb = Btb::new(4096); // big enough that pcs < 1024*4 never alias
        let mut last = std::collections::HashMap::new();
        for _ in 0..n {
            let pc = r.gen_range(0..1024u64) * 4;
            let target: u64 = r.gen();
            btb.update(pc, target);
            last.insert(pc, target);
        }
        for (&pc, &target) in &last {
            assert_eq!(btb.lookup(pc), Some(target));
        }
    }
}

/// RAS: with depth >= number of live frames, call/return nesting is
/// predicted perfectly.
#[test]
fn ras_nesting() {
    let mut r = Prng::seed_from_u64(0xb7a_0005);
    for _ in 0..cases(128) {
        let depth_order: Vec<u64> = (0..r.gen_range(1..8usize))
            .map(|_| r.gen_range(0..1000u64))
            .collect();
        let mut ras = ReturnAddressStack::new(8);
        for &a in &depth_order {
            ras.push(a);
        }
        for &a in depth_order.iter().rev() {
            assert_eq!(ras.pop(), Some(a));
        }
        assert!(ras.is_empty());
    }
}

/// RAS overflow drops the *oldest* frames only.
#[test]
fn ras_overflow_keeps_youngest() {
    for n in 9usize..20 {
        let mut ras = ReturnAddressStack::new(8);
        for i in 0..n as u64 {
            ras.push(i);
        }
        for i in (n as u64 - 8..n as u64).rev() {
            assert_eq!(ras.pop(), Some(i));
        }
        assert_eq!(ras.pop(), None);
    }
}
