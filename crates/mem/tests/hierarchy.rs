//! Hierarchy-level scenarios: inclusion-ish behaviour, writeback
//! correctness signals, DRAM row locality, the MLP limiter working
//! through the full stack, and the read-only residency probe.

use sst_mem::{AccessKind, CacheConfig, DramConfig, HitLevel, MemConfig, MemSystem};
use sst_obs::Residue;

fn tiny_l1() -> MemConfig {
    MemConfig {
        l1d: CacheConfig {
            size_bytes: 1024,
            ways: 2,
            line_bytes: 64,
        },
        ..MemConfig::default()
    }
}

#[test]
fn l1_evictions_land_in_l2() {
    let mut ms = MemSystem::new(&tiny_l1(), 1);
    let mut t = 0;
    // Touch 64 lines: way beyond the 16-line L1, well within L2.
    for i in 0..64u64 {
        let o = ms.access(t, 0, AccessKind::Load, 0x10_0000 + i * 64);
        t = o.ready_at + 1;
    }
    // Early lines should now be L2 hits (fetched once, evicted from L1).
    let o = ms.access(t, 0, AccessKind::Load, 0x10_0000);
    assert_eq!(o.level, HitLevel::L2);
    assert_eq!(ms.stats().dram_reads, 64, "no refetch from DRAM");
}

#[test]
fn dirty_evictions_count_writebacks_and_preserve_data() {
    let mut ms = MemSystem::new(&tiny_l1(), 1);
    let mut t = 0;
    for i in 0..32u64 {
        ms.write(0x20_0000 + i * 64, 8, i + 1);
        let o = ms.access(t, 0, AccessKind::Store, 0x20_0000 + i * 64);
        t = o.ready_at + 1;
    }
    let st = ms.stats();
    assert!(st.l1d[0].writebacks > 0, "dirty lines were displaced");
    for i in 0..32u64 {
        assert_eq!(ms.read(0x20_0000 + i * 64, 8), i + 1);
    }
}

#[test]
fn sequential_stream_exploits_dram_rows() {
    let cfg = MemConfig {
        l2: CacheConfig {
            size_bytes: 64 * 1024, // tiny L2 so the stream reaches DRAM
            ways: 4,
            line_bytes: 64,
        },
        ..MemConfig::default()
    };
    let mut ms = MemSystem::new(&cfg, 1);
    let mut t = 0;
    // Scattered pattern: a stride larger than the 4 KiB row, so nearly
    // every access opens a new row.
    for i in 0..512u64 {
        let o = ms.access(t, 0, AccessKind::Load, 0x100_0000 + i * 64 * 1087);
        t = o.ready_at + 1;
    }
    let random_hits = ms.stats().dram_row_hits;

    let mut ms2 = MemSystem::new(&cfg, 1);
    let mut t = 0;
    for i in 0..512u64 {
        let o = ms2.access(t, 0, AccessKind::Load, 0x100_0000 + i * 64);
        t = o.ready_at + 1;
    }
    let seq_hits = ms2.stats().dram_row_hits;
    assert!(
        seq_hits > random_hits * 2,
        "sequential rows must hit more: {seq_hits} vs {random_hits}"
    );
}

#[test]
fn bank_parallel_misses_beat_same_bank() {
    let dram = DramConfig {
        banks: 8,
        row_bytes: 4096,
        ..DramConfig::default()
    };
    let cfg = MemConfig {
        dram,
        ..MemConfig::default()
    };

    // Misses striped across banks (consecutive rows).
    let mut ms = MemSystem::new(&cfg, 1);
    let start = 0;
    let mut latest = 0;
    for i in 0..8u64 {
        let o = ms.access(start, 0, AccessKind::Load, 0x200_0000 + i * 4096);
        latest = latest.max(o.ready_at);
    }
    let striped = latest;

    // Misses all in one bank (stride = banks * row).
    let mut ms2 = MemSystem::new(&cfg, 1);
    let mut latest = 0;
    for i in 0..8u64 {
        let o = ms2.access(start, 0, AccessKind::Load, 0x200_0000 + i * 4096 * 8);
        latest = latest.max(o.ready_at);
    }
    let same_bank = latest;
    assert!(
        same_bank > striped + 100,
        "bank conflicts must serialize: {same_bank} vs {striped}"
    );
}

#[test]
fn mshr_limit_applies_through_the_full_stack() {
    for (mshrs, expect_faster) in [(2usize, false), (16, true)] {
        let cfg = MemConfig {
            l1d_mshrs: mshrs,
            ..MemConfig::default()
        };
        let mut ms = MemSystem::new(&cfg, 1);
        let mut latest = 0;
        for i in 0..16u64 {
            let o = ms.access(0, 0, AccessKind::Load, 0x300_0000 + i * (1 << 16));
            latest = latest.max(o.ready_at);
        }
        if expect_faster {
            assert!(latest < 1000, "16 MSHRs overlap 16 misses: {latest}");
        } else {
            assert!(latest > 2000, "2 MSHRs serialize 16 misses: {latest}");
        }
    }
}

#[test]
fn stats_snapshot_is_consistent() {
    let mut ms = MemSystem::new(&MemConfig::default(), 2);
    for core in 0..2 {
        for i in 0..32u64 {
            ms.access(
                i * 400,
                core,
                AccessKind::Load,
                0x40_0000 + i * 64 + core as u64 * (1 << 30),
            );
        }
    }
    let st = ms.stats();
    assert_eq!(st.l1d.len(), 2);
    let total_l1_misses: u64 = st.l1d.iter().map(|s| s.misses()).sum();
    assert!(
        st.l2.accesses >= total_l1_misses,
        "every L1 miss reaches L2"
    );
    assert!(st.dram_reads <= st.l2.accesses);
}

/// The taint sweep's residency probe reads tags and MSHRs and changes
/// nothing: no recency, no MSHR reaping, no counters.
#[test]
fn probe_residency_reads_tags_and_mshrs_without_perturbing() {
    let mut ms = MemSystem::new(&MemConfig::default(), 1);
    // One fill long complete, one still outstanding when probed.
    let done = ms.access(0, 0, AccessKind::Load, 0x4000);
    let now = done.ready_at + 10;
    let pending = ms.access(now, 0, AccessKind::Load, 0x9000);
    assert!(pending.ready_at > now + 1, "second fill still in flight");
    let before = ms.stats();

    let mut bus = ms.bus(0);
    let mut probe = |addr| bus.probe_residency(now + 1, addr);
    assert_eq!(
        probe(0x4008),
        Residue {
            resident: true,
            in_flight: false
        },
        "a completed fill is resident"
    );
    assert_eq!(
        probe(0x9000),
        Residue {
            resident: true,
            in_flight: true
        },
        "an outstanding fill has its tags installed and is in flight"
    );
    assert_eq!(
        probe(0x20_0000),
        Residue::default(),
        "a cold line is neither"
    );
    assert_eq!(ms.stats(), before, "probing moved no counter");
}
