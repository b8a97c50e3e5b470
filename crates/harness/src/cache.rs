//! Content-addressed result cache.
//!
//! Each completed job is persisted as `results/cache/<hash>.entry`, where
//! `<hash>` is the FNV-1a hash of the job's canonical cache key (see
//! [`crate::JobSpec::cache_key`]). An entry is written with the snapshot
//! codec ([`sst_isa::Snap`]): the section tag `ENTRY_TAG`, the cache key
//! itself, one kind byte (run, CMP or traffic), the result record — one
//! `snap_record!` field list per result type, kept next to the type — and
//! nothing after it. The key is verified on load, so a hash collision
//! degrades to a cache miss instead of serving wrong numbers; a torn,
//! corrupt or foreign file (an older layout included) fails to decode and
//! is likewise a miss — `rm -rf results/cache` is always safe.
//!
//! The tag names the layout. A change to any persisted field list bumps
//! it in the same commit (`RES1` → `RES2`), so an entry written under the
//! old layout is refused at its first four bytes instead of being read
//! under the new one; `tests/entry_pin.rs` holds the encoded bytes of a
//! fixed result of each kind and fails until the tag moves.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::time::Duration;

use sst_isa::{Snap, SnapError, SnapReader, SnapWriter};

use crate::job::JobOutput;

/// Section tag at the head of every entry; see the module doc for when it
/// moves.
const ENTRY_TAG: &str = "RES1";

/// The cache directory under an output root.
pub fn cache_dir(out_dir: &Path) -> PathBuf {
    out_dir.join("results").join("cache")
}

fn entry_path(out_dir: &Path, hash: u64) -> PathBuf {
    cache_dir(out_dir).join(format!("{hash:016x}.entry"))
}

/// Stores a job output. Writes via a temporary file + rename so
/// concurrent `sst-run` invocations never observe a torn entry.
pub fn store(out_dir: &Path, hash: u64, key: &str, out: &JobOutput) -> io::Result<()> {
    let dir = cache_dir(out_dir);
    fs::create_dir_all(&dir)?;
    let body = encode(key, out);
    let tmp = dir.join(format!("{hash:016x}.tmp.{}", std::process::id()));
    fs::write(&tmp, body)?;
    fs::rename(&tmp, entry_path(out_dir, hash))
}

/// Loads a job output, verifying the stored key matches. Returns `None`
/// on a miss, a key mismatch (hash collision), or a corrupt entry.
pub fn load(out_dir: &Path, hash: u64, key: &str) -> Option<JobOutput> {
    decode(&fs::read(entry_path(out_dir, hash)).ok()?, key).ok()
}

fn encode(key: &str, out: &JobOutput) -> Vec<u8> {
    let mut w = SnapWriter::new();
    w.tag(ENTRY_TAG);
    w.put_str(key);
    match out {
        JobOutput::Run(r) => {
            w.put_u8(0);
            r.put(&mut w);
        }
        JobOutput::Cmp(r) => {
            w.put_u8(1);
            r.put(&mut w);
        }
        JobOutput::Traffic(r) => {
            w.put_u8(2);
            r.put(&mut w);
        }
    }
    w.into_bytes()
}

fn decode(bytes: &[u8], key: &str) -> Result<JobOutput, SnapError> {
    let mut r = SnapReader::new(bytes);
    r.tag(ENTRY_TAG)?;
    if r.take_bytes()? != key.as_bytes() {
        return Err(SnapError::Mismatch("cache key".to_string()));
    }
    let out = match r.take_u8()? {
        0 => JobOutput::Run(Snap::take(&mut r)?),
        1 => JobOutput::Cmp(Snap::take(&mut r)?),
        2 => JobOutput::Traffic(Snap::take(&mut r)?),
        kind => return Err(SnapError::Corrupt(format!("result kind {kind}"))),
    };
    r.finish()?;
    Ok(out)
}

fn claim_path(out_dir: &Path, hash: u64) -> PathBuf {
    cache_dir(out_dir).join(format!("{hash:016x}.claim"))
}

/// Outcome of a [`claim`] attempt on a cache entry.
pub enum Claim {
    /// This process won the claim and must execute the job (then drop the
    /// guard, which removes the claim file).
    Won(ClaimGuard),
    /// Another live process holds the claim; wait for its published
    /// entry instead of duplicating the work.
    Lost,
}

/// RAII holder for a won claim: dropping it deletes the claim file, so a
/// claim is released whether the job succeeds, fails, or panics (the
/// scheduler keeps the guard across its `catch_unwind`).
pub struct ClaimGuard {
    path: PathBuf,
}

impl Drop for ClaimGuard {
    fn drop(&mut self) {
        fs::remove_file(&self.path).ok();
    }
}

/// Attempts to claim the right to execute the job behind `hash`.
///
/// The claim file is created with `create_new` — an atomic
/// exists-check-and-create on every platform the workspace targets — so
/// exactly one of N concurrent `sst-run` processes wins. The file body
/// records the claimant's pid for post-mortem debugging; nothing reads
/// it programmatically.
///
/// # Errors
///
/// Propagates filesystem errors other than "already exists" (which is
/// [`Claim::Lost`]).
pub fn claim(out_dir: &Path, hash: u64) -> io::Result<Claim> {
    let dir = cache_dir(out_dir);
    fs::create_dir_all(&dir)?;
    let path = claim_path(out_dir, hash);
    match fs::OpenOptions::new()
        .write(true)
        .create_new(true)
        .open(&path)
    {
        Ok(mut f) => {
            use std::io::Write;
            writeln!(f, "pid={}", std::process::id()).ok();
            Ok(Claim::Won(ClaimGuard { path }))
        }
        Err(e) if e.kind() == io::ErrorKind::AlreadyExists => Ok(Claim::Lost),
        Err(e) => Err(e),
    }
}

/// Age of the claim file for `hash`, if one exists. A very old claim
/// means the claimant died without unwinding (SIGKILL, power loss) —
/// its guard never dropped — and the claim should be reaped.
pub fn claim_age(out_dir: &Path, hash: u64) -> Option<Duration> {
    let meta = fs::metadata(claim_path(out_dir, hash)).ok()?;
    meta.modified().ok()?.elapsed().ok()
}

/// Removes the claim file for `hash` (used to break a stale claim before
/// re-claiming).
pub fn remove_claim(out_dir: &Path, hash: u64) {
    fs::remove_file(claim_path(out_dir, hash)).ok();
}

/// Deletes every claim file under `out_dir` older than `grace`,
/// returning how many were reaped. Run at scheduler start-up: claims
/// normally live for one job's duration and are removed by their guard,
/// so anything past a generous grace period is wreckage from a killed
/// process that would otherwise wedge every future run on that entry.
pub fn reap_stale_claims(out_dir: &Path, grace: Duration) -> usize {
    let Ok(entries) = fs::read_dir(cache_dir(out_dir)) else {
        return 0;
    };
    let mut reaped = 0;
    for entry in entries.flatten() {
        let path = entry.path();
        if path.extension().and_then(|e| e.to_str()) != Some("claim") {
            continue;
        }
        let stale = entry
            .metadata()
            .ok()
            .and_then(|m| m.modified().ok())
            .and_then(|t| t.elapsed().ok())
            .is_some_and(|age| age >= grace);
        if stale && fs::remove_file(&path).is_ok() {
            reaped += 1;
        }
    }
    reaped
}

#[cfg(test)]
mod tests {
    use super::*;
    use sst_sim::{CmpResult, CoreModel, RunResult, System};
    use sst_traffic::{run_traffic, Policy, TrafficResult, TrafficSpec};
    use sst_workloads::{Scale, Workload};

    fn tmp_dir(tag: &str) -> PathBuf {
        let d =
            std::env::temp_dir().join(format!("sst-harness-cache-{tag}-{}", std::process::id()));
        fs::create_dir_all(&d).unwrap();
        d
    }

    fn some_run() -> RunResult {
        let w = Workload::by_name("gzip", Scale::Smoke, 3).unwrap();
        System::new(CoreModel::InOrder, &w)
            .without_cosim()
            .run_checked(100_000_000)
            .unwrap()
    }

    #[test]
    fn run_round_trips_exactly() {
        let r = some_run();
        let out = JobOutput::Run(r.clone());
        let dir = tmp_dir("rt");
        store(&dir, 42, "some-key", &out).unwrap();
        let back = load(&dir, 42, "some-key").expect("hit");
        assert_eq!(back.run(), &r);
        assert_eq!(
            r.phases.iter().map(|(_, v)| v).sum::<u64>(),
            r.cycles,
            "phase rows survive the round-trip summing to total cycles"
        );
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn hostile_counter_names_round_trip() {
        // Names carrying every structural character of the text format
        // entries once had — separators, line breaks, its escape character,
        // and a literal "%2C" that must not collapse to "," on decode.
        let mut r = some_run();
        r.counters = vec![
            ("plain".to_string(), 1),
            ("with,comma".to_string(), 2),
            ("with:colon".to_string(), 3),
            ("multi\nline\rname".to_string(), 4),
            ("percent%sign".to_string(), 5),
            ("pre-escaped%2Cname".to_string(), 6),
            ("%25,:".to_string(), 7),
            ("trailing%".to_string(), 8),
        ];
        let expected = r.counters.clone();
        let out = JobOutput::Run(r);
        let dir = tmp_dir("hostile");
        store(&dir, 77, "hostile-key", &out).unwrap();
        let back = load(&dir, 77, "hostile-key").expect("hit");
        assert_eq!(back.run().counters, expected);
        fs::remove_dir_all(&dir).ok();
    }

    fn some_traffic() -> TrafficResult {
        let spec = TrafficSpec {
            model: CoreModel::InOrder,
            workload: "oltp".into(),
            cores: 2,
            load_permille: 200,
            txns_per_request: 2,
            requests: 24,
            warmup: 4,
            admission_cap: 16,
            lane_cap: 4,
            quantum: 256,
            policy: Policy::LeastLoaded,
        };
        run_traffic(&spec, Scale::Smoke, 3, 1, 1_000_000_000)
    }

    #[test]
    fn traffic_round_trips_exactly() {
        let r = some_traffic();
        let out = JobOutput::Traffic(r.clone());
        let dir = tmp_dir("traffic");
        store(&dir, 55, "traffic-key", &out).unwrap();
        let back = load(&dir, 55, "traffic-key").expect("hit");
        assert_eq!(back.traffic(), &r, "lossless round-trip incl. histogram");
        fs::remove_dir_all(&dir).ok();
    }

    /// One entry of each kind, cut at every length and with every byte
    /// flipped in turn: `load` reads each damaged file as a miss or as
    /// some result, and never panics. A cut entry is always a miss.
    #[test]
    fn torn_and_flipped_entries_never_panic() {
        let run = some_run();
        let cmp = CmpResult {
            model: run.model.clone(),
            per_core: vec![(run.cycles, run.insts), (run.cycles + 7, run.insts / 2)],
            cycles: run.cycles + 7,
            mem: run.mem.clone(),
        };
        let dir = tmp_dir("hostile-entries");
        let path = entry_path(&dir, 5);
        for out in [
            JobOutput::Run(run),
            JobOutput::Cmp(cmp),
            JobOutput::Traffic(some_traffic()),
        ] {
            store(&dir, 5, "k", &out).unwrap();
            let bytes = fs::read(&path).unwrap();
            for cut in 0..bytes.len() {
                fs::write(&path, &bytes[..cut]).unwrap();
                assert!(
                    load(&dir, 5, "k").is_none(),
                    "cut at {cut} of {}",
                    bytes.len()
                );
            }
            for at in 0..bytes.len() {
                let mut bad = bytes.clone();
                bad[at] ^= 0xff;
                fs::write(&path, &bad).unwrap();
                load(&dir, 5, "k");
            }
        }
        fs::remove_dir_all(&dir).ok();
    }

    /// The bytes of a traffic entry whose histogram holds `buckets`,
    /// written field by field in `TrafficResult`'s list order.
    fn traffic_entry(buckets: &[(usize, u64)]) -> Vec<u8> {
        let r = some_traffic();
        let mut w = SnapWriter::new();
        w.tag(ENTRY_TAG);
        w.put_str("k");
        w.put_u8(2);
        (
            r.model,
            r.workload,
            r.cores,
            r.load_permille,
            r.mean_interarrival,
        )
            .put(&mut w);
        (r.cycles, r.offered, r.completed, r.shed).put(&mut w);
        (5u32, 1u64 << 34, buckets.to_vec(), 0u64).put(&mut w);
        (r.per_core, r.mem).put(&mut w);
        w.into_bytes()
    }

    #[test]
    fn a_histogram_total_past_u64_max_is_a_miss() {
        let dir = tmp_dir("hist-overflow");
        fs::create_dir_all(cache_dir(&dir)).unwrap();
        fs::write(entry_path(&dir, 6), traffic_entry(&[(0, 1), (1, 1)])).unwrap();
        let hit = load(&dir, 6, "k").expect("the hand-written layout is an entry");
        assert_eq!(hit.traffic().hist.count(), 2);
        fs::write(
            entry_path(&dir, 6),
            traffic_entry(&[(0, u64::MAX), (1, u64::MAX)]),
        )
        .unwrap();
        assert!(load(&dir, 6, "k").is_none());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn key_mismatch_is_a_miss() {
        let out = JobOutput::Run(some_run());
        let dir = tmp_dir("key");
        store(&dir, 7, "key-a", &out).unwrap();
        assert!(load(&dir, 7, "key-b").is_none(), "collision must miss");
        assert!(load(&dir, 8, "key-a").is_none(), "absent hash must miss");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_entries_are_misses() {
        let dir = tmp_dir("corrupt");
        fs::create_dir_all(cache_dir(&dir)).unwrap();
        // A whole entry in the `key=value` text format of earlier builds.
        let text = "key=k\nkind=cmp\nmodel=sst\ncycles=900\nper_core=900:400,880:390\n\
                    mem.l1i=10:9:0,10:9:0\nmem.l1d=20:15:1,20:15:1\nmem.l2=11:5:1\n\
                    mem.dram_reads=6\nmem.dram_row_hits=2\nmem.dram_writebacks=1\n\
                    mem.mshr_merges=0\nmem.mshr_full_delays=0\nmem.prefetches=0\n\
                    mem.useful_prefetches=0\n";
        fs::write(entry_path(&dir, 9), text).unwrap();
        assert!(load(&dir, 9, "k").is_none());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn claims_are_exclusive_and_released_on_drop() {
        let dir = tmp_dir("claim");
        let won = claim(&dir, 100).unwrap();
        assert!(matches!(won, Claim::Won(_)), "first claim wins");
        // While held, every other attempt loses.
        assert!(matches!(claim(&dir, 100).unwrap(), Claim::Lost));
        assert!(claim_age(&dir, 100).is_some());
        // A different hash is an independent claim.
        assert!(matches!(claim(&dir, 101).unwrap(), Claim::Won(_)));
        // Dropping the guard releases the claim; it can be won again.
        drop(won);
        assert!(claim_age(&dir, 100).is_none(), "guard removed the file");
        assert!(matches!(claim(&dir, 100).unwrap(), Claim::Won(_)));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stale_claims_are_reaped_fresh_ones_kept() {
        let dir = tmp_dir("reap");
        let _held = claim(&dir, 200).unwrap();
        let _also = claim(&dir, 201).unwrap();
        // A generous grace keeps freshly created claims.
        assert_eq!(reap_stale_claims(&dir, Duration::from_secs(3600)), 0);
        assert!(claim_age(&dir, 200).is_some());
        // Zero grace makes every claim "stale" without having to forge
        // file mtimes; both get reaped and the entries are re-claimable.
        assert_eq!(reap_stale_claims(&dir, Duration::ZERO), 2);
        assert!(claim_age(&dir, 200).is_none());
        let reclaimed = claim(&dir, 200).unwrap();
        assert!(matches!(reclaimed, Claim::Won(_)));
        // Reaping ignores cache entries and tolerates a missing cache dir.
        store(&dir, 300, "k", &JobOutput::Run(some_run())).unwrap();
        assert_eq!(
            reap_stale_claims(&dir, Duration::ZERO),
            1,
            "only the re-claim"
        );
        drop(reclaimed);
        assert!(load(&dir, 300, "k").is_some(), "cache entry untouched");
        let empty = tmp_dir("reap-empty");
        assert_eq!(reap_stale_claims(&empty, Duration::ZERO), 0);
        fs::remove_dir_all(&empty).ok();
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn remove_claim_breaks_a_stale_holder() {
        let dir = tmp_dir("break");
        let won = claim(&dir, 400).unwrap();
        assert!(matches!(claim(&dir, 400).unwrap(), Claim::Lost));
        remove_claim(&dir, 400);
        assert!(matches!(claim(&dir, 400).unwrap(), Claim::Won(_)));
        // Note the dead holder's guard deletes by path, so breaking a
        // claim whose holder is still alive would release the new
        // claimant's file too — which is why the scheduler only breaks
        // claims past the grace period, when the holder is long dead.
        drop(won);
        fs::remove_dir_all(&dir).ok();
    }
}
