//! Microbenchmarks with precisely controlled memory-level parallelism.

use sst_isa::Reg;

use crate::common::{pointer_chain, rng, slot_asm};
use crate::{Class, Scale, Workload};

/// Pure pointer chase: MLP 1, every hop a dependent miss. The worst case
/// for every latency-tolerance mechanism (there is nothing to run ahead
/// on).
pub fn chase(scale: Scale, seed: u64, slot: usize) -> Workload {
    let (nodes, hops) = match scale {
        Scale::Smoke => (32 * 1024, 1_500),
        Scale::Full => (256 * 1024, 20_000),
    };
    let mut r = rng("chase", seed);
    let mut a = slot_asm(slot);
    let chain = pointer_chain(&mut a, &mut r, nodes);
    a.la(Reg::x(1), chain);
    a.li(Reg::x(2), hops);
    let top = a.here();
    a.ld(Reg::x(1), Reg::x(1), 0);
    a.addi(Reg::x(2), Reg::x(2), -1);
    a.bne(Reg::x(2), Reg::ZERO, top);
    a.halt();
    Workload {
        name: "chase",
        class: Class::Micro,
        program: a.finish().expect("chase assembles"),
        skip_insts: (hops as u64 / 10) * 4,
        description: "single dependent pointer chase (MLP 1)",
    }
}

/// Eight interleaved independent chases, each with an immediate dependent
/// use of its loaded value. A stall-on-use in-order pipeline serializes at
/// the first use (MLP 1); a mechanism that can defer the uses exposes all
/// eight misses at once (MLP 8).
pub fn mlp8(scale: Scale, seed: u64, slot: usize) -> Workload {
    let (nodes, hops) = match scale {
        Scale::Smoke => (8 * 1024, 300),
        Scale::Full => (64 * 1024, 3_000),
    };
    let mut r = rng("mlp8", seed);
    let mut a = slot_asm(slot);
    let chains: Vec<u64> = (0..8)
        .map(|_| pointer_chain(&mut a, &mut r, nodes))
        .collect();
    for (i, &c) in chains.iter().enumerate() {
        a.la(Reg::x(10 + i as u8), c);
    }
    a.li(Reg::x(2), hops);
    a.li(Reg::x(20), 0);
    let top = a.here();
    for i in 0..8u8 {
        a.ld(Reg::x(10 + i), Reg::x(10 + i), 0);
        // Immediate dependent use: blocks a stall-on-use pipeline here.
        a.add(Reg::x(20), Reg::x(20), Reg::x(10 + i));
    }
    a.addi(Reg::x(2), Reg::x(2), -1);
    a.bne(Reg::x(2), Reg::ZERO, top);
    a.halt();
    Workload {
        name: "mlp8",
        class: Class::Micro,
        program: a.finish().expect("mlp8 assembles"),
        skip_insts: (hops as u64 / 10) * 18,
        description: "eight interleaved independent chases (MLP 8)",
    }
}
