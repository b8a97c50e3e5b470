//! Speculative-leakage gadget kernels (experiment E13, "does SST leak?").
//!
//! Each gadget is a Spectre-v1-shaped bounds-check-bypass loop tuned so the
//! *architectural* path is short and the *mispredicted* path is long. The
//! skeleton shared by all three:
//!
//! * an off-chip pointer chase produces the guard condition two dependent
//!   misses deep (`l1` chain node → `l2` node → condition word), so every
//!   deferral-based core speculates past the guard for one to two full
//!   memory latencies before replay can resolve it;
//! * the guard branches *to* the body when the condition says "authorized"
//!   (~1/8 of iterations, RNG-drawn so no history predictor can learn it).
//!   The predictor settles on taken for the guard, so the body runs
//!   speculatively on **every** iteration — but architecturally only on
//!   authorized ones;
//! * a per-iteration trip count comes from a *warm* `limits[]` array and is
//!   large exactly on the *unauthorized* iterations — so the long body only
//!   ever runs under a misprediction and its memory footprint is pure
//!   speculative residue (authorized iterations run a two-trip stub);
//! * the body reads a cache-resident secret byte and touches a
//!   secret-selected probe line (classic Flush+Reload transmitter). The
//!   probe cursor advances on the *committed* path once per iteration, so
//!   each speculative window probes fresh lines and the distinct-line count
//!   measures window length, not rollback cadence.
//!
//! The gadgets are registered in [`crate::Workload::by_name`] but
//! deliberately kept out of [`crate::Workload::all_names`]: they measure
//! leakage, not performance, and only experiment E13 runs them.
//!
//! The three variants differ only in the transmitter:
//!
//! * `g_bcb` — the headline: secret-indexed *prefetch* probes (no deferred
//!   destination, so the deferred queue never back-pressures the run-ahead
//!   window; the leak scales with the speculation window).
//! * `g_chase` — the probe address depends on the *not-there* chase value
//!   itself, so a deferral pipeline never issues the probe at all: NT
//!   deferral blocks the classic transmitter. The contrast case.
//! * `g_store` — speculative *stores* as the transmitter: squashed store
//!   buffer entries still warm their target lines.

use sst_isa::Reg;
use sst_prng::Prng;

use crate::common::{fill_node, rng, sattolo, slot_asm, xorshift};
use crate::{Class, Scale, Workload};

/// Outer-loop iterations (cold chase nodes) per scale.
fn iters(scale: Scale) -> u64 {
    match scale {
        Scale::Smoke => 256,
        Scale::Full => 2048,
    }
}

/// Architectural (correct-path) body trip count.
const K_SMALL: u64 = 2;

/// The shared data image: a randomly-ordered chain of level-1 nodes, each
/// pointing at a randomly-placed level-2 node whose first byte is the
/// branch condition, plus a warm byte array of per-iteration trip counts.
struct Layout {
    /// First level-1 node (== loop entry pointer).
    l1_head: u64,
    /// Per-iteration trip counts, one byte each (warm).
    limits: u64,
    /// 64-byte secret array (warm).
    secret: u64,
    /// Probe region base (cold, untouched by the data image).
    probe: u64,
    /// Number of architecturally-authorized (guard-taken) iterations.
    taken: u64,
}

/// Builds the two-level chase image. Level-1 nodes hold
/// `[next_l1, my_l2, junk...]`; the level-2 node's first word is non-zero
/// exactly on taken iterations. Both levels are laid out in independent
/// random orders so the stride prefetcher cannot hide the misses.
fn build_layout(a: &mut sst_isa::Asm, r: &mut Prng, m: u64, k_big: u8, probe_bytes: u64) -> Layout {
    let taken_pat: Vec<bool> = {
        let mut v: Vec<bool> = (0..m).map(|_| r.gen_range(0..8usize) == 0).collect();
        // Keep a floor of authorized iterations so the guard's prediction
        // stays profitable-looking and architectural body code is covered.
        if v.iter().filter(|&&t| t).count() < 4 {
            for i in [m / 5, 2 * m / 5, 3 * m / 5, 4 * m / 5] {
                v[i as usize] = true;
            }
        }
        // The first iterations warm the pipeline; keep them unauthorized.
        v[0] = false;
        v[1] = false;
        v
    };

    // Visit orders: position p in the chain occupies node index perm[p].
    let perm = sattolo(r, m);
    let lperm = sattolo(r, m);

    a.align_data(64);
    let l1_region = a.data_in_place(2 * m * 64, |l1_region, data| {
        let l2_region = l1_region + m * 64;
        for p in 0..m as usize {
            let next = u64::from(perm[(p + 1) % m as usize]);
            let l2 = u64::from(lperm[p]);
            let l1_node = data.at(u64::from(perm[p]) * 64, 64);
            fill_node(l1_node, &[l1_region + next * 64, l2_region + l2 * 64], r);
            fill_node(data.at((m + l2) * 64, 64), &[u64::from(taken_pat[p])], r);
        }
    });

    // Inverted on purpose: the *unauthorized* (mispredicted) iterations
    // carry the big trip count, so the long body is speculation-only.
    let limit_bytes: Vec<u8> = taken_pat
        .iter()
        .map(|&t| if t { K_SMALL as u8 } else { k_big })
        .collect();
    let limits = a.data_bytes(&limit_bytes);
    let secret_bytes: Vec<u8> = (0..64).map(|_| r.gen()).collect();
    let secret = a.data_bytes(&secret_bytes);
    a.align_data(64);
    let probe = a.reserve(probe_bytes);

    Layout {
        l1_head: l1_region + u64::from(perm[0]) * 64,
        limits,
        secret,
        probe,
        taken: taken_pat.iter().filter(|&&t| t).count() as u64,
    }
}

/// Register plan shared by all three gadgets.
mod regs {
    use sst_isa::Reg;
    pub const L1: Reg = Reg::x(1); // current level-1 node
    pub const CNT: Reg = Reg::x(2); // outer countdown
    pub const LIM: Reg = Reg::x(3); // limits base
    pub const SEC: Reg = Reg::x(4); // secret base
    pub const CUR: Reg = Reg::x(5); // probe cursor
    pub const L2P: Reg = Reg::x(6); // level-2 pointer (NT under deferral)
    pub const B2: Reg = Reg::x(7); // branch condition (NT under deferral)
    pub const K: Reg = Reg::x(9); // body countdown
    pub const S: Reg = Reg::x(10); // secret byte
    pub const T1: Reg = Reg::x(11);
    pub const T2: Reg = Reg::x(12);
    pub const T3: Reg = Reg::x(13); // body-local probe cursor
    pub const P: Reg = Reg::x(20); // outer up-counter (limits index)
}

/// Emits prologue (pointers, warm-ups) and the loop head through the
/// vulnerable guard; returns `(body, skip, top)`. The guard branches *to*
/// `body` on authorized iterations; the caller must emit the tail at the
/// fall-through, then bind `body` (after `halt`) ending with a jump back
/// to `skip`.
///
/// Why the body lives on the branch-*target* path: deferred branches
/// resolve at replay time, long after the ahead strand has run hundreds of
/// other branches, so the gshare update lands under a global history that
/// never matches the history at the guard's own fetch. The fetch-indexed
/// table entry therefore keeps its weakly-taken initial value, and the
/// frontend predicts the guard taken on every iteration — exactly the
/// Spectre-v1 situation, where the interesting path is the one the
/// predictor keeps choosing against the architectural outcome.
fn emit_head(
    a: &mut sst_isa::Asm,
    lay: &Layout,
    m: u64,
) -> (sst_isa::Label, sst_isa::Label, sst_isa::Label) {
    use regs::*;
    a.la(L1, lay.l1_head);
    a.li(CNT, m as i64);
    a.la(LIM, lay.limits);
    a.la(SEC, lay.secret);
    a.la(CUR, lay.probe);
    a.li(P, 0);
    // Warm the limits array and the secret line so body trip counts and
    // secret bytes are always near hits (never deferred).
    a.li(T1, (m as i64 + 63) / 64);
    a.mv(T2, LIM);
    let warm = a.here();
    a.lbu(S, T2, 0);
    a.addi(T2, T2, 64);
    a.addi(T1, T1, -1);
    a.bne(T1, Reg::ZERO, warm);
    a.lbu(S, SEC, 0);

    let body = a.label();
    let skip = a.label();
    let top = a.here();
    a.ld(L2P, L1, 8); // cold miss 1: defers, L2P goes NT
    a.add(T1, LIM, P);
    a.lbu(K, T1, 0); // warm: trip count architecturally known
    a.ld(B2, L2P, 0); // NT base: defers unissued; replay = cold miss 2
    a.ld(L1, L1, 0); // next node (same line as miss 1)
    a.bne(B2, Reg::ZERO, body); // the guard: predicted taken, ~7/8 not
    (body, skip, top)
}

/// Emits the loop tail: `skip:` label, counters, a deferred-queue drain
/// window, back-branch, halt.
///
/// The drain window — a register-only countdown a bit longer than two
/// memory round trips — is what gives the experiment its epoch structure:
/// it lets replay resolve both chase misses and empty the deferred queue
/// before the next iteration's cold miss, so every iteration is its own
/// speculative epoch. Untaken iterations then *commit* (their residue is
/// legitimate) and each taken iteration rolls back exactly once, with a
/// sweep covering just its own body. Without it, chase deferrals pile up
/// across iterations into one never-committing epoch that fails on the
/// first mispredicted branch anywhere inside it, and every design degrades
/// into scout-like restart behaviour.
fn emit_tail(a: &mut sst_isa::Asm, skip: sst_isa::Label, top: sst_isa::Label, stride: u64) {
    use regs::*;
    a.bind(skip);
    a.addi(P, P, 1);
    // Advance the probe cursor on the committed path, one full body's worth
    // per iteration, so successive speculative windows touch disjoint lines.
    a.li(T2, stride as i64);
    a.add(CUR, CUR, T2);
    a.addi(CNT, CNT, -1);
    a.li(T1, 1200);
    let drain = a.here();
    a.addi(T1, T1, -1);
    a.bne(T1, Reg::ZERO, drain);
    a.bne(CNT, Reg::ZERO, top);
    a.halt();
}

/// Headline bounds-check-bypass gadget: secret-indexed prefetch probes.
pub fn g_bcb(scale: Scale, seed: u64, slot: usize) -> Workload {
    const K_BIG: u8 = 255;
    let m = iters(scale);
    let mut r = rng("g_bcb", seed);
    let mut a = slot_asm(slot);
    // Worst-case cursor: every iteration speculatively runs the full body.
    let probe_bytes = m * u64::from(K_BIG) * 512 + 4096;
    let lay = build_layout(&mut a, &mut r, m, K_BIG, probe_bytes);
    let (body, skip, top) = emit_head(&mut a, &lay, m);
    emit_tail(&mut a, skip, top, u64::from(K_BIG) * 512);
    {
        use regs::*;
        a.bind(body);
        a.mv(T3, CUR); // body-local cursor: commits never see it move
        let trip = a.here();
        a.andi(T1, K, 63);
        a.add(T1, SEC, T1);
        a.lbu(S, T1, 0); // secret byte: L1 hit
        // A dependent mixing chain on the secret (the transmitter's
        // "computation on stolen data"). Deliberately serial: it pins the
        // body to ~1 probe per ~30 cycles, below the MSHR-sustainable fill
        // rate, so the leak is bounded by *speculation-window length* —
        // the quantity that separates the pipeline designs — instead of
        // by miss-handling throughput, which is the same for all of them.
        for _ in 0..4 {
            xorshift(&mut a, S, T2);
        }
        a.andi(S, S, 7);
        a.slli(T2, S, 6); // secret picks 1 of 8 candidate lines
        a.add(T2, T3, T2);
        a.prefetch(T2, 0); // THE LEAK: fills a secret-selected line
        a.addi(T3, T3, 512); // next 8-line candidate group
        a.addi(K, K, -1);
        a.bne(K, Reg::ZERO, trip);
        a.j(skip);
    }
    debug_assert!(lay.taken >= 4, "gadget needs authorized iterations");
    Workload {
        name: "g_bcb",
        class: Class::Micro,
        program: a.finish().expect("g_bcb assembles"),
        // Warm-up: the limits sweep plus the first two (unauthorized)
        // iterations, drain windows included.
        skip_insts: 5000,
        description: "bounds-check-bypass gadget: secret-indexed prefetch probes",
    }
}

/// Contrast gadget: the probe address depends on the not-there chase value
/// itself, so deferral pipelines never issue the probe (NT blocks the
/// transmitter) while an OoO machine's wrong-path walk would poison it.
pub fn g_chase(scale: Scale, seed: u64, slot: usize) -> Workload {
    const K_BIG: u8 = 16; // deferred probes occupy DQ slots: keep it small
    let m = iters(scale);
    let mut r = rng("g_chase", seed);
    let mut a = slot_asm(slot);
    let probe_bytes = m * u64::from(K_BIG) * 512 + 4096;
    let lay = build_layout(&mut a, &mut r, m, K_BIG, probe_bytes);
    let (body, skip, top) = emit_head(&mut a, &lay, m);
    emit_tail(&mut a, skip, top, u64::from(K_BIG) * 512);
    {
        use regs::*;
        a.bind(body);
        a.mv(T3, CUR);
        let trip = a.here();
        a.slli(T1, B2, 6); // address chains off the NT condition value
        a.slli(T2, K, 6);
        a.add(T1, T1, T2);
        a.add(T1, T1, T3);
        a.ld(S, T1, 0); // NT base: defers without touching memory
        a.addi(T3, T3, 512);
        a.addi(K, K, -1);
        a.bne(K, Reg::ZERO, trip);
        a.j(skip);
    }
    debug_assert!(lay.taken >= 4, "gadget needs authorized iterations");
    Workload {
        name: "g_chase",
        class: Class::Micro,
        program: a.finish().expect("g_chase assembles"),
        skip_insts: 5000,
        description: "NT-dependent probe gadget: deferral blocks the transmitter",
    }
}

/// Store-transmitter gadget: squashed speculative stores still warm their
/// target lines through the store buffer's line-warm prefetch.
pub fn g_store(scale: Scale, seed: u64, slot: usize) -> Workload {
    const K_BIG: u8 = 48; // stays under the 64-entry STB
    let m = iters(scale);
    let mut r = rng("g_store", seed);
    let mut a = slot_asm(slot);
    let probe_bytes = m * u64::from(K_BIG) * 512 + 4096;
    let lay = build_layout(&mut a, &mut r, m, K_BIG, probe_bytes);
    let (body, skip, top) = emit_head(&mut a, &lay, m);
    emit_tail(&mut a, skip, top, u64::from(K_BIG) * 512);
    {
        use regs::*;
        a.bind(body);
        a.mv(T3, CUR);
        let trip = a.here();
        a.andi(T1, K, 63);
        a.add(T1, SEC, T1);
        a.lbu(S, T1, 0); // secret byte: L1 hit
        // Same serial mixing chain as g_bcb (see there): keeps the store
        // rate window-bound rather than miss-throughput-bound.
        for _ in 0..4 {
            xorshift(&mut a, S, T2);
        }
        a.andi(S, S, 7);
        a.slli(T2, S, 6);
        a.add(T2, T3, T2);
        a.sd(S, T2, 0); // THE LEAK: speculative store warms the line
        a.addi(T3, T3, 512);
        a.addi(K, K, -1);
        a.bne(K, Reg::ZERO, trip);
        a.j(skip);
    }
    debug_assert!(lay.taken >= 4, "gadget needs authorized iterations");
    Workload {
        name: "g_store",
        class: Class::Micro,
        program: a.finish().expect("g_store assembles"),
        skip_insts: 5000,
        description: "store-transmitter gadget: squashed stores warm lines",
    }
}

/// Gadget names, for E13's experiment matrix.
pub fn gadget_names() -> &'static [&'static str] {
    &["g_bcb", "g_chase", "g_store"]
}

#[cfg(test)]
mod tests {
    use super::*;
    use sst_isa::{Interp, StopReason};

    #[test]
    fn gadgets_build_and_halt_functionally() {
        for name in gadget_names() {
            let w = Workload::by_name(name, Scale::Smoke, 7).unwrap();
            let mut i = Interp::new(&w.program);
            let out = i
                .run(20_000_000)
                .unwrap_or_else(|t| panic!("{name}: trap {t}"));
            assert_eq!(out.stop, StopReason::Halt, "{name} did not halt");
            assert!(out.steps > w.skip_insts, "{name}: warm-up exceeds run");
        }
    }

    #[test]
    fn gadgets_are_deterministic_and_off_the_perf_roster() {
        for name in gadget_names() {
            let a = Workload::by_name(name, Scale::Smoke, 5).unwrap();
            let b = Workload::by_name(name, Scale::Smoke, 5).unwrap();
            assert_eq!(a.program.decoded(), b.program.decoded());
            assert!(!Workload::all_names().contains(name));
        }
    }

    #[test]
    fn architectural_body_work_is_short() {
        // The long body must only ever run speculatively: the functional
        // (architectural) instruction count stays near the K_SMALL floor.
        let w = Workload::by_name("g_bcb", Scale::Smoke, 7).unwrap();
        let mut i = Interp::new(&w.program);
        let out = i.run(20_000_000).unwrap();
        let m = iters(Scale::Smoke);
        // Per iteration the committed path runs the head (~6), the tail
        // with its 1200-trip drain window (~2407), and on ~1/8 authorized
        // iterations a K_SMALL-trip body stub. If the K_BIG body leaked
        // into architectural execution it would add ~255×11 insts on 7/8
        // of iterations — roughly double the total.
        assert!(
            out.steps < m * 3000,
            "architectural path ran the speculative body: {} steps",
            out.steps
        );
        assert!(out.steps > m * 2400, "drain window missing: {} steps", out.steps);
    }
}
