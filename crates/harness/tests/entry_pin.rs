//! Entry pin: the bytes of a cache entry of each kind, held to a committed
//! table.
//!
//! A cache entry is a section tag, the cache key, a kind byte and one
//! result record (see `sst_harness::cache`). The round-trip tests cannot
//! see a field list that changes on both sides at once, but an entry
//! stored by an older build would then be read under the new layout. This
//! table pins the layout: the tag, length and FNV-1a of the entry `store`
//! writes for a fixed `RunResult`, `CmpResult` and `TrafficResult`.
//!
//! A change to any persisted field list (`RunResult`, `CmpResult`,
//! `TrafficResult`, `MemStats`, `CacheStats`, `LatencyHistogram`) fails
//! here. Bump `ENTRY_TAG` in `cache.rs` in the same commit, then
//! regenerate; `regenerate` refuses a row whose bytes moved under an
//! unchanged tag:
//!
//! ```sh
//! cargo test -p sst-harness --test entry_pin -- --ignored regenerate
//! ```

use std::fs;

use sst_harness::{cache, JobOutput};
use sst_mem::{CacheStats, MemStats};
use sst_prng::fnv1a;
use sst_sim::{CmpResult, RunResult};
use sst_traffic::{LatencyHistogram, TrafficResult};

const TABLE: &str = include_str!("entry_pin.txt");

fn mem() -> MemStats {
    let c = |accesses, hits, writebacks| CacheStats {
        accesses,
        hits,
        writebacks,
    };
    MemStats {
        l1i: vec![c(1000, 990, 0), c(800, 777, 0)],
        l1d: vec![c(400, 350, 12), c(300, 260, 9)],
        l2: c(150, 90, 7),
        dram_reads: 60,
        dram_row_hits: 21,
        dram_writebacks: 7,
        mshr_merges: 5,
        mshr_full_delays: 3,
        prefetches: 40,
        useful_prefetches: 17,
    }
}

fn outputs() -> [(&'static str, JobOutput); 3] {
    let named = |names: &[&str]| -> Vec<(String, u64)> {
        names
            .iter()
            .zip(1..)
            .map(|(n, v)| (n.to_string(), v * 101))
            .collect()
    };
    let mut hist = LatencyHistogram::new(5, 1 << 34);
    for v in [3, 40, 41, 900, 12_345, 1 << 20, 1 << 35] {
        hist.record(v);
    }
    [
        (
            "run",
            JobOutput::Run(RunResult {
                model: "sst".to_string(),
                workload: "oltp".to_string(),
                cycles: 123_456,
                insts: 54_321,
                warmup_cycles: 2_000,
                warmup_insts: 1_000,
                mem: mem(),
                counters: named(&["deferred", "replayed", "stall,port:%"]),
                inst_mix: [1, 2, 3, 4, 5, 6, 7, 8, 9, 10],
                phases: named(&["normal", "ahead", "replay", "rollback", "gated"]),
            }),
        ),
        (
            "cmp",
            JobOutput::Cmp(CmpResult {
                model: "ooo-64".to_string(),
                per_core: vec![(9_000, 4_000), (8_800, 3_900)],
                cycles: 9_000,
                mem: mem(),
            }),
        ),
        (
            "traffic",
            JobOutput::Traffic(TrafficResult {
                model: "in-order".to_string(),
                workload: "web".to_string(),
                cores: 2,
                load_permille: 350,
                mean_interarrival: 4_321,
                cycles: 777_777,
                offered: 9,
                completed: 7,
                shed: 2,
                hist,
                per_core: vec![(777_000, 3_000), (776_000, 2_900)],
                mem: mem(),
            }),
        ),
    ]
}

/// The table, one entry per line: kind, tag, length, FNV-1a.
fn measure() -> String {
    let dir = std::env::temp_dir().join(format!(
        "sst-entry-pin-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let mut out = String::new();
    for (i, (kind, output)) in outputs().into_iter().enumerate() {
        cache::store(&dir, i as u64, "a fixed cache key", &output).unwrap();
        let path = cache::cache_dir(&dir).join(format!("{i:016x}.entry"));
        let bytes = fs::read(path).unwrap();
        let tag = String::from_utf8_lossy(&bytes[..4]);
        out.push_str(&format!(
            "{kind} tag={tag} len={} fnv={:016x}\n",
            bytes.len(),
            fnv1a(&bytes)
        ));
    }
    fs::remove_dir_all(&dir).ok();
    out
}

#[test]
fn entries_match_the_committed_table() {
    assert_eq!(
        measure(),
        TABLE,
        "an entry's bytes moved: bump ENTRY_TAG and regenerate (see the module doc)"
    );
}

#[test]
#[ignore = "rewrites the committed table"]
fn regenerate() {
    let now = measure();
    let tag = |row: &str| row.split(' ').nth(1).map(str::to_string);
    for (got, want) in now.lines().zip(TABLE.lines()) {
        assert!(
            got == want || tag(got) != tag(want),
            "{got:?} moved from {want:?} under the same tag: bump ENTRY_TAG first"
        );
    }
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/");
    fs::write(format!("{dir}entry_pin.txt"), now).unwrap();
}
