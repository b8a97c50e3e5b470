//! Randomized property tests for the speculation substrate: store-buffer
//! overlay semantics vs a byte-level oracle, NT merge-rule invariants, and
//! deferred-queue order preservation. Driven by the workspace's
//! deterministic PRNG (fixed seeds, reproducible failures); build with
//! `--features ext` for more cases.

use sst_isa::{Reg, SparseMem};
use sst_prng::Prng;
use sst_uarch::{DeferredQueue, DqEntry, ForwardResult, RegImage, StoreBuffer, StoreEntry};

fn cases(base: usize) -> usize {
    if cfg!(feature = "ext") {
        base * 8
    } else {
        base
    }
}

/// A reference "memory + ordered stores" oracle for overlay reads.
fn oracle_read(
    mem: &SparseMem,
    stores: &[(u64, u64, u64, u64)], // (seq, addr, bytes, value), ordered
    load_seq: u64,
    addr: u64,
    bytes: u64,
) -> u64 {
    let mut buf = [0u8; 8];
    for i in 0..bytes {
        buf[i as usize] = mem.read_u8(addr + i);
    }
    for &(seq, saddr, sbytes, value) in stores {
        if seq >= load_seq {
            continue;
        }
        for i in 0..sbytes {
            let b = saddr + i;
            if b >= addr && b < addr + bytes {
                buf[(b - addr) as usize] = (value >> (8 * i)) as u8;
            }
        }
    }
    u64::from_le_bytes(buf)
        & if bytes == 8 {
            u64::MAX
        } else {
            (1 << (bytes * 8)) - 1
        }
}

fn arb_width(r: &mut Prng) -> u64 {
    [1u64, 2, 4, 8][r.gen_range(0..4usize)]
}

/// read_overlay must agree with a byte-level oracle for any set of
/// resolved stores.
#[test]
fn overlay_matches_oracle() {
    let mut r = Prng::seed_from_u64(0x0a7c_0001);
    for _ in 0..cases(128) {
        let stores: Vec<(u64, u64, u64)> = (0..r.gen_range(0..12usize))
            .map(|_| (r.gen_range(0..64u64), arb_width(&mut r), r.gen()))
            .collect();
        let laddr = r.gen_range(0..64u64);
        let lbytes = arb_width(&mut r);
        let lseq_off = r.gen_range(0..14u64);
        let mem_val: u64 = r.gen();

        let mut mem = SparseMem::new();
        for i in 0..10 {
            mem.write_u64(i * 8, mem_val.wrapping_add(i));
        }
        let mut sb = StoreBuffer::new(32);
        let mut ordered = Vec::new();
        for (i, &(addr, bytes, value)) in stores.iter().enumerate() {
            let seq = i as u64 + 1;
            sb.push(StoreEntry {
                seq,
                addr: Some(addr),
                bytes,
                value: Some(value),
            });
            ordered.push((seq, addr, bytes, value));
        }
        let load_seq = lseq_off + 1;
        let got = sb.read_overlay(load_seq, laddr, lbytes, &mem);
        let want = oracle_read(&mem, &ordered, load_seq, laddr, lbytes);
        assert_eq!(got, Some(want));
    }
}

/// forward() never returns a wrong value: when it forwards, the value
/// matches the oracle; when it says NoMatch, memory-only matches.
#[test]
fn forward_is_sound() {
    let mut r = Prng::seed_from_u64(0x0a7c_0002);
    for _ in 0..cases(128) {
        let stores: Vec<(u64, u64, u64)> = (0..r.gen_range(0..8usize))
            .map(|_| (r.gen_range(0..32u64), arb_width(&mut r), r.gen()))
            .collect();
        let laddr = r.gen_range(0..32u64);
        let lbytes = arb_width(&mut r);

        let mem = SparseMem::new();
        let mut sb = StoreBuffer::new(16);
        let mut ordered = Vec::new();
        for (i, &(addr, bytes, value)) in stores.iter().enumerate() {
            let seq = i as u64 + 1;
            sb.push(StoreEntry {
                seq,
                addr: Some(addr),
                bytes,
                value: Some(value),
            });
            ordered.push((seq, addr, bytes, value));
        }
        let load_seq = stores.len() as u64 + 1;
        let want = oracle_read(&mem, &ordered, load_seq, laddr, lbytes);
        match sb.forward(load_seq, laddr, lbytes) {
            ForwardResult::Forward(v) => assert_eq!(v, want, "forwarded value wrong"),
            ForwardResult::NoMatch => {
                // No older store overlaps; memory value (zero here) is it.
                assert_eq!(want, 0, "NoMatch but an older store overlapped");
            }
            ForwardResult::MustWait => {} // conservative is always sound
            ForwardResult::NotThere { .. } => panic!("all stores resolved"),
        }
    }
}

/// The NT merge rule: a merge lands iff the register is NT with the
/// matching writer, and at most one merge per (reg, writer) lands.
#[test]
fn merge_rule_invariants() {
    let mut r = Prng::seed_from_u64(0x0a7c_0003);
    for _ in 0..cases(128) {
        let writes: Vec<(u8, u64, u64)> = (0..r.gen_range(1..20usize))
            .map(|_| (r.gen_range(1..64u8), r.gen(), r.gen_range(1..100u64)))
            .collect();
        let merge_reg = r.gen_range(1..64u8);
        let merge_writer = r.gen_range(1..100u64);
        let merge_val: u64 = r.gen();

        let mut im = RegImage::new();
        for &(reg_idx, v, seq) in &writes {
            let reg = Reg::from_index(reg_idx).unwrap();
            if v % 3 == 0 {
                im.mark_nt(reg, seq);
            } else {
                im.write(reg, v, seq, 0);
            }
        }
        let reg = Reg::from_index(merge_reg).unwrap();
        let was_nt = im.is_nt(reg);
        let was_writer = im.slot(reg).writer;
        let landed = im.merge(reg, merge_val, merge_writer, 0);
        assert_eq!(landed, was_nt && was_writer == merge_writer);
        if landed {
            assert_eq!(im.value(reg), merge_val);
            assert!(!im.is_nt(reg));
            // A second identical merge must not land (no longer NT).
            assert!(!im.merge(reg, merge_val ^ 1, merge_writer, 0));
            assert_eq!(im.value(reg), merge_val);
        }
    }
}

/// DQ: any interleaving of pushes and removals keeps entries in strictly
/// increasing seq order, the derived replay state in step with them, and
/// never exceeds capacity.
#[test]
fn dq_order_invariant() {
    let mut r = Prng::seed_from_u64(0x0a7c_0004);
    for _ in 0..cases(64) {
        let mut q = DeferredQueue::new(16);
        let mut next_seq = 1u64;
        for _ in 0..r.gen_range(1..100usize) {
            if r.gen::<bool>() && !q.is_full() {
                q.push(DqEntry {
                    seq: next_seq,
                    pc: 0x1000,
                    inst: sst_isa::Inst::NOP,
                    captured: [Some(0), Some(0)],
                    producers: [None, None],
                    predicted_taken: None,
                    pred_next_pc: None,
                    data_ready_at: None,
                });
                next_seq += 1;
            } else if !q.is_empty() {
                // Remove every third entry.
                let done: Vec<u64> = q.iter().map(|e| e.seq).filter(|s| s % 3 == 0).collect();
                for seq in done {
                    assert_eq!(q.remove_seq(seq).seq, seq);
                }
            }
            let seqs: Vec<u64> = q.iter().map(|e| e.seq).collect();
            assert!(seqs.windows(2).all(|w| w[0] < w[1]));
            assert!(q.consistent());
            assert!(q.len() <= q.capacity());
        }
    }
}

/// The two `uarch.dq.*` rungs of `benchmark/` as they are written there — a
/// struct-literal `DqEntry` whose second source names the previous number,
/// `new` / `push` / `remove_seq` / `squash_from` — so that a change to the
/// queue that would stop the benchmark compiling, or make it count
/// something else, fails here first. A queue that never holds a slot
/// behaves as it did before slots could be held.
#[test]
fn the_benchmark_rungs_drive_the_queue_as_before() {
    const CAP: u64 = 128;
    let entry = |seq: u64| DqEntry {
        seq,
        pc: 0x4000 + seq * 4,
        inst: sst_isa::Inst::AluImm {
            op: sst_isa::AluOp::Add,
            rd: Reg::x(5),
            rs1: Reg::x(6),
            imm: 1,
        },
        captured: [Some(seq), None],
        producers: [None, Some(seq.saturating_sub(1))],
        predicted_taken: None,
        pred_next_pc: None,
        data_ready_at: (seq % 4 == 0).then_some(seq + 300),
    };
    let mut dq = DeferredQueue::new(CAP as usize);
    let mut seq = 1;
    for _ in 0..3 {
        let first = seq;
        for _ in 0..CAP {
            dq.push(entry(seq));
            seq += 1;
        }
        // (Not `consistent()`: the rung's first entry names a producer that
        // was never queued, which the queue tolerates and the core never does.)
        assert!(dq.is_full());
        for done in first..seq {
            assert_eq!(dq.remove_seq(done).seq, done);
        }
        assert!(dq.is_empty());
    }
    for _ in 0..3 {
        let first = seq;
        for _ in 0..CAP {
            dq.push(entry(seq));
            seq += 1;
        }
        dq.squash_from(first + CAP / 4);
        assert_eq!((dq.len() as u64, dq.first_seq()), (CAP / 4, Some(first)));
        dq.squash_from(first);
        assert!(dq.is_empty());
    }
    assert_eq!((dq.high_water as u64, dq.total_deferred), (CAP, 6 * CAP));
}

/// Store buffer drain/squash partition: entries either drain (seq <=
/// boundary) or survive, never both, and drains come out in order.
#[test]
fn stb_drain_squash_partition() {
    let mut r = Prng::seed_from_u64(0x0a7c_0005);
    for _ in 0..cases(128) {
        let n = r.gen_range(1..16usize);
        let boundary = r.gen_range(1..20u64);
        let mut sb = StoreBuffer::new(32);
        for i in 0..n {
            sb.push(StoreEntry {
                seq: i as u64 + 1,
                addr: Some(i as u64 * 8),
                bytes: 8,
                value: Some(i as u64),
            });
        }
        let drained = sb.drain_through(boundary);
        assert!(drained.windows(2).all(|w| w[0].seq < w[1].seq));
        for d in &drained {
            assert!(d.seq <= boundary);
        }
        for e in sb.iter() {
            assert!(e.seq > boundary);
        }
        assert_eq!(drained.len() + sb.len(), n);
    }
}
