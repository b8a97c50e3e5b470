//! Rollback idempotence: squashing from the same sequence number twice
//! must leave the DQ and STB in the same state as squashing once.
//!
//! The rollback path may retry (a checkpoint restore that races a replay
//! pass re-issues its squash), so `squash_from` has to be a projection:
//! applying it again with the same boundary is a no-op on every
//! observable. "Observable" here means the slab contents, the timed list
//! derived from them and the free list. The tests therefore compare
//! entry-level projections plus a refill-to-capacity probe (which would
//! diverge if a double squash leaked or double-freed slab slots).
//!
//! Driven by the workspace's deterministic PRNG (fixed seeds,
//! reproducible failures); build with `--features ext` for more cases.

use sst_prng::Prng;
use sst_uarch::{DeferredQueue, DqEntry, StoreBuffer, StoreEntry};

fn cases(base: usize) -> usize {
    if cfg!(feature = "ext") {
        base * 8
    } else {
        base
    }
}

/// Every externally visible projection of a DQ: the entries, the timed
/// list as `(seq, when)`, the wake with and without the blocked entries.
#[allow(clippy::type_complexity)]
fn dq_observables(q: &DeferredQueue) -> (Vec<(u64, u64)>, Vec<(u64, u64)>, Option<u64>, bool, u64) {
    assert!(q.consistent());
    let entries: Vec<(u64, u64)> = q.iter().map(|e| (e.seq, e.pc)).collect();
    assert_eq!(entries.len(), q.len());
    let timed = (0..)
        .map_while(|at| q.when_at(at).map(|when| (q.entry_at(at).seq, when)))
        .collect();
    (
        entries,
        timed,
        q.first_seq(),
        q.any_blocked(),
        q.pass_end_wake(0),
    )
}

/// One STB entry as seen from outside: sequence, address, bytes, value.
type StbView = (u64, Option<u64>, u64, Option<u64>);

/// Every externally visible projection of an STB.
fn stb_observables(sb: &StoreBuffer) -> (usize, Vec<StbView>) {
    let entries: Vec<_> = sb
        .iter()
        .map(|e| (e.seq, e.addr, e.bytes, e.value))
        .collect();
    (sb.len(), entries)
}

fn arb_dq_entry(r: &mut Prng, seq: u64) -> DqEntry {
    DqEntry {
        seq,
        pc: 0x1000 + 4 * seq,
        inst: sst_isa::Inst::NOP,
        captured: [Some(r.gen()), if r.gen::<bool>() { Some(r.gen()) } else { None }],
        producers: [None, None],
        predicted_taken: if r.gen::<bool>() { Some(r.gen()) } else { None },
        pred_next_pc: None,
        data_ready_at: if r.gen::<bool>() {
            Some(r.gen_range(1..1000u64))
        } else {
            None
        },
    }
}

/// Builds two identical DQs from the same PRNG stream: random fill with
/// gaps in the seq space, a sprinkling of blocked marks, and some
/// mid-stream removals so the free list is non-trivial.
fn paired_dqs(r: &mut Prng, capacity: usize) -> (DeferredQueue, DeferredQueue, u64) {
    let mut a = DeferredQueue::new(capacity);
    let mut b = DeferredQueue::new(capacity);
    let mut seq = 0u64;
    let mut live = Vec::new();
    for _ in 0..r.gen_range(1..40usize) {
        seq += r.gen_range(1..4u64);
        if a.is_full() {
            break;
        }
        let e = arb_dq_entry(r, seq);
        a.push(e);
        b.push(e);
        live.push(seq);
    }
    // Churn the free list: drop a random residue class, then refill a bit.
    let m = r.gen_range(2..5u64);
    for &s in live.iter().filter(|&&s| s % m == 0) {
        a.remove_seq(s);
        b.remove_seq(s);
    }
    live.retain(|s| s % m != 0);
    for _ in 0..r.gen_range(0..8usize) {
        seq += r.gen_range(1..4u64);
        if a.is_full() {
            break;
        }
        let e = arb_dq_entry(r, seq);
        a.push(e);
        b.push(e);
        live.push(seq);
    }
    // No entry waits for a producer, so timed-list positions are
    // program-order positions.
    for (at, &s) in live.iter().enumerate() {
        if s % 3 == 0 {
            a.mark_blocked(at);
            b.mark_blocked(at);
        }
    }
    (a, b, seq)
}

#[test]
fn dq_squash_twice_is_squash_once() {
    let mut r = Prng::seed_from_u64(0x0a7c_1301);
    for _ in 0..cases(96) {
        let (mut once, mut twice, max_seq) = paired_dqs(&mut r, 16);
        // Boundary anywhere in or beyond the live range, including 0
        // (squash everything) and max_seq + 1 (squash nothing).
        let from = r.gen_range(0..max_seq + 2);
        once.squash_from(from);
        twice.squash_from(from);
        twice.squash_from(from);
        assert_eq!(dq_observables(&once), dq_observables(&twice), "from={from}");
        // Survivors are exactly the live entries older than the boundary,
        // still strictly ordered.
        let seqs: Vec<u64> = twice.iter().map(|e| e.seq).collect();
        assert!(seqs.iter().all(|&s| s < from));
        assert!(seqs.windows(2).all(|w| w[0] < w[1]));
    }
}

/// A double squash must not corrupt the slab free list: both queues
/// refill to exactly `capacity` entries and then report full.
#[test]
fn dq_free_list_survives_double_squash() {
    let mut r = Prng::seed_from_u64(0x0a7c_1302);
    for _ in 0..cases(64) {
        let (mut once, mut twice, max_seq) = paired_dqs(&mut r, 12);
        let from = r.gen_range(0..max_seq + 2);
        once.squash_from(from);
        twice.squash_from(from);
        twice.squash_from(from);

        let room = once.capacity() - once.len();
        assert_eq!(room, twice.capacity() - twice.len());
        let mut seq = max_seq;
        for _ in 0..room {
            seq += 1;
            once.push(arb_dq_entry(&mut Prng::seed_from_u64(seq), seq));
            twice.push(arb_dq_entry(&mut Prng::seed_from_u64(seq), seq));
        }
        assert!(once.is_full() && twice.is_full());
        assert_eq!(dq_observables(&once), dq_observables(&twice));
    }
}

#[test]
fn stb_squash_twice_is_squash_once() {
    let mut r = Prng::seed_from_u64(0x0a7c_1303);
    for _ in 0..cases(96) {
        let mut once = StoreBuffer::new(16);
        let mut twice = StoreBuffer::new(16);
        let mut seq = 0u64;
        for _ in 0..r.gen_range(1..16usize) {
            seq += r.gen_range(1..4u64);
            let e = StoreEntry {
                seq,
                addr: if r.gen::<bool>() {
                    Some(r.gen_range(0..256u64) & !7)
                } else {
                    None
                },
                bytes: 8,
                value: if r.gen::<bool>() { Some(r.gen()) } else { None },
            };
            once.push(e);
            twice.push(e);
        }
        let from = r.gen_range(0..seq + 2);
        once.squash_from(from);
        twice.squash_from(from);
        twice.squash_from(from);
        assert_eq!(stb_observables(&once), stb_observables(&twice), "from={from}");

        // The unresolved-addr side index must have been truncated in
        // lockstep: a load probing past the squash point sees the same
        // unknown-address answer from both buffers.
        let probe = seq + 10;
        assert_eq!(
            once.unknown_addr_before(probe),
            twice.unknown_addr_before(probe),
            "from={from}"
        );

        // And both accept refills up to the same occupancy.
        let room = once.capacity() - once.len();
        assert_eq!(room, twice.capacity() - twice.len());
        for s2 in (seq + 101..).take(room) {
            let e = StoreEntry {
                seq: s2,
                addr: Some(64),
                bytes: 8,
                value: Some(1),
            };
            once.push(e);
            twice.push(e);
        }
        assert!(once.is_full() && twice.is_full());
        assert_eq!(stb_observables(&once), stb_observables(&twice));
    }
}
