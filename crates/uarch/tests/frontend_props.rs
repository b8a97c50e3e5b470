//! Frontend behavioural tests: fetch-bandwidth limits, queue capacity,
//! line-crossing, and redirect semantics under randomized programs.
//! Driven by the workspace's deterministic PRNG; build with
//! `--features ext` for more cases.

use sst_isa::Asm;
use sst_mem::{MemConfig, MemSystem};
use sst_prng::Prng;
use sst_uarch::{Frontend, FrontendConfig};

fn cases(base: usize) -> usize {
    if cfg!(feature = "ext") {
        base * 8
    } else {
        base
    }
}

fn warm_setup(n_nops: usize, width: usize, depth: usize) -> (Frontend, MemSystem) {
    let mut a = Asm::new();
    for _ in 0..n_nops {
        a.nop();
    }
    a.halt();
    let p = a.finish().unwrap();
    let mut ms = MemSystem::new(&MemConfig::default(), 1);
    p.load_into(ms.mem_mut());
    let cfg = FrontendConfig {
        width,
        queue_depth: depth,
        ..FrontendConfig::default()
    };
    let mut fe = Frontend::new(cfg, &p);
    // Warm the I-cache by running fetch until something arrives, then
    // flushing back to the entry.
    let mut now = 0;
    while fe.queued() == 0 && now < 100_000 {
        fe.tick(now, &mut ms.bus(0));
        now += 1;
    }
    fe.redirect(now, p.entry);
    // Skip the redirect penalty.
    for t in now..now + 64 {
        if fe.queued() > 0 {
            break;
        }
        fe.tick(t, &mut ms.bus(0));
    }
    (fe, ms)
}

/// Per-cycle fetch never exceeds the configured width.
#[test]
fn fetch_respects_width() {
    let mut r = Prng::seed_from_u64(0xfe_0001);
    for _ in 0..cases(24) {
        let width = r.gen_range(1..6usize);
        let nops = r.gen_range(32..200usize);
        let (mut fe, mut ms) = warm_setup(nops, width, 64);
        // Drain whatever warm-up queued, then measure one warm cycle.
        while fe.pop().is_some() {}
        let t = 1_000_000; // far past any stall
        let before = fe.queued();
        fe.tick(t, &mut ms.bus(0));
        let after = fe.queued();
        assert!(after - before <= width, "fetched {} > width {width}", after - before);
    }
}

/// The decode queue never exceeds its configured depth.
#[test]
fn queue_depth_is_respected() {
    let mut r = Prng::seed_from_u64(0xfe_0002);
    for _ in 0..cases(12) {
        let depth = r.gen_range(1..12usize);
        let nops = r.gen_range(64..200usize);
        let (mut fe, mut ms) = warm_setup(nops, 4, depth);
        for t in 0..5_000u64 {
            fe.tick(1_000_000 + t, &mut ms.bus(0));
            assert!(fe.queued() <= depth);
        }
    }
}

/// Instructions come out in consecutive PC order for straight-line code.
#[test]
fn straight_line_pcs_are_consecutive() {
    let mut r = Prng::seed_from_u64(0xfe_0003);
    for _ in 0..cases(24) {
        let nops = r.gen_range(10..100usize);
        let (mut fe, mut ms) = warm_setup(nops, 2, 16);
        while fe.pop().is_some() {}
        let mut fetched = Vec::new();
        let mut t = 1_000_000u64;
        while fetched.len() < nops.min(20) && t < 1_100_000 {
            fe.tick(t, &mut ms.bus(0));
            while let Some(f) = fe.pop() {
                fetched.push(f.pc);
            }
            t += 1;
        }
        assert!(fetched.len() >= 2);
        for w in fetched.windows(2) {
            assert_eq!(w[1], w[0] + 4);
        }
    }
}

/// After a redirect, the first delivered instruction is at the target.
#[test]
fn redirect_lands_on_target() {
    let mut r = Prng::seed_from_u64(0xfe_0004);
    for _ in 0..cases(24) {
        let nops = r.gen_range(20..100usize);
        let skip = r.gen_range(1..15usize);
        let (mut fe, mut ms) = warm_setup(nops, 2, 16);
        let target = {
            // Entry + skip instructions (still inside the nop range).
            let base = sst_isa::DEFAULT_TEXT_BASE;
            base + (skip.min(nops - 1) as u64) * 4
        };
        fe.redirect(2_000_000, target);
        let mut t = 2_000_000u64;
        while fe.queued() == 0 && t < 2_100_000 {
            fe.tick(t, &mut ms.bus(0));
            t += 1;
        }
        let first = fe.pop().expect("fetch resumed");
        assert_eq!(first.pc, target);
    }
}
