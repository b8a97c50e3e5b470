//! Shared generator helpers: seeded data-image construction and common
//! code idioms.

use sst_isa::{Asm, Reg};
use sst_prng::Prng;

/// An [`Asm`] whose text/data segments live in `slot`'s private address
/// range. Slot 0 is the default layout; each further slot is offset by
/// 64 GiB so multiprogrammed CMP workloads never alias.
pub fn slot_asm(slot: usize) -> Asm {
    let off = (slot as u64) << 36;
    Asm::with_bases(sst_isa::DEFAULT_TEXT_BASE + off, sst_isa::DEFAULT_DATA_BASE + off)
}

/// A seeded RNG for data-image generation (deterministic per workload+seed).
pub fn rng(workload: &str, seed: u64) -> Prng {
    let mut h = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    for b in workload.bytes() {
        h = (h ^ b as u64).wrapping_mul(0x100_0000_01B3);
    }
    Prng::seed_from_u64(h)
}

/// Sattolo's algorithm: a uniformly random single cycle over `0..n`, as
/// a visit order (position `k` visits item `perm[k]`, and the last
/// position leads back to the first). Panics unless `0 < n <= u32::MAX`.
pub fn sattolo(rng: &mut Prng, n: u64) -> Vec<u32> {
    assert!(n > 0, "a random cycle needs at least one node");
    let mut perm: Vec<u32> = (0..u32::try_from(n).expect("at most u32::MAX nodes")).collect();
    for i in (1..n as usize).rev() {
        perm.swap(i, rng.gen_range(0..i));
    }
    perm
}

/// Writes `head`, then random words, over `node`, 8 bytes each.
pub fn fill_node(node: &mut [u8], head: &[u64], rng: &mut Prng) {
    let (head_bytes, rest) = node.split_at_mut(head.len() * 8);
    for (b, w) in head_bytes.chunks_exact_mut(8).zip(head) {
        b.copy_from_slice(&w.to_le_bytes());
    }
    for b in rest.chunks_exact_mut(8) {
        b.copy_from_slice(&rng.gen::<u64>().to_le_bytes());
    }
}

/// Builds a random-cycle pointer chain of `nodes` 64-byte nodes in a
/// 64-byte-aligned region; offset 0 of each node holds the absolute
/// address of the next node, the rest of the node is filled with random
/// payload words. Returns the region base (== the first node).
///
/// A single cycle through a random permutation gives the classic
/// cache-hostile chase: successive hops are far apart and unpredictable.
/// Nodes are written into the image where the cycle visits them, so the
/// build holds the image once plus the visit order.
pub fn pointer_chain(a: &mut Asm, rng: &mut Prng, nodes: u64) -> u64 {
    let perm = sattolo(rng, nodes);
    a.align_data(64);
    a.data_in_place(nodes * 64, |region, data| {
        for (k, &cur) in perm.iter().enumerate() {
            let next = u64::from(perm[(k + 1) % perm.len()]);
            fill_node(data.at(u64::from(cur) * 64, 64), &[region + next * 64], rng);
        }
    })
}

/// Appends `count` 8-byte-aligned words, each `next()`'s, in order;
/// returns the address of the first.
pub fn words(a: &mut Asm, count: u64, mut next: impl FnMut() -> u64) -> u64 {
    a.align_data(8);
    a.data_stream(count * 8, |chunk| {
        for w in chunk.chunks_exact_mut(8) {
            w.copy_from_slice(&next().to_le_bytes());
        }
    })
}

/// Emits an xorshift64 step on `state`, clobbering `tmp`.
pub fn xorshift(a: &mut Asm, state: Reg, tmp: Reg) {
    a.slli(tmp, state, 13);
    a.xor(state, state, tmp);
    a.srli(tmp, state, 7);
    a.xor(state, state, tmp);
    a.slli(tmp, state, 17);
    a.xor(state, state, tmp);
}

/// Fills a region with random 64-bit words; returns its base.
pub fn random_words(a: &mut Asm, rng: &mut Prng, count: u64) -> u64 {
    words(a, count, || rng.gen())
}

/// Fills a region with random bytes; returns its base.
pub fn random_bytes(a: &mut Asm, rng: &mut Prng, count: u64) -> u64 {
    a.data_stream(count, |chunk| {
        for b in chunk {
            *b = rng.gen();
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sst_isa::{Interp, Reg, StopReason};

    #[test]
    fn pointer_chain_is_a_single_cycle() {
        let mut a = Asm::new();
        let mut r = rng("t", 1);
        let nodes = 64;
        let base = pointer_chain(&mut a, &mut r, nodes);
        // Walk it functionally and require we visit every node once.
        a.la(Reg::x(1), base);
        a.li(Reg::x(2), nodes as i64);
        let top = a.here();
        a.ld(Reg::x(1), Reg::x(1), 0);
        a.addi(Reg::x(2), Reg::x(2), -1);
        a.bne(Reg::x(2), Reg::ZERO, top);
        a.halt();
        let p = a.finish().unwrap();
        let mut i = Interp::new(&p);
        assert_eq!(i.run(10_000).unwrap().stop, StopReason::Halt);
        assert_eq!(
            i.state().read(Reg::x(1)),
            base,
            "after `nodes` hops the cycle returns to the start"
        );
    }

    #[test]
    #[should_panic(expected = "a random cycle needs at least one node")]
    fn an_empty_cycle_is_rejected() {
        sattolo(&mut rng("t", 1), 0);
    }

    #[test]
    fn xorshift_matches_reference() {
        let mut a = Asm::new();
        a.li(Reg::x(1), 88172645463325252u64 as i64);
        xorshift(&mut a, Reg::x(1), Reg::x(2));
        a.halt();
        let p = a.finish().unwrap();
        let mut i = Interp::new(&p);
        i.run(100).unwrap();
        // Reference xorshift64.
        let mut x = 88172645463325252u64;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        assert_eq!(i.state().read(Reg::x(1)), x);
    }

    #[test]
    fn rng_distinguishes_workloads_and_seeds() {
        let a: u64 = rng("oltp", 1).gen();
        let b: u64 = rng("oltp", 2).gen();
        let c: u64 = rng("web", 1).gen();
        assert_ne!(a, b);
        assert_ne!(a, c);
        let a2: u64 = rng("oltp", 1).gen();
        assert_eq!(a, a2);
    }
}
