//! Content-addressed result cache.
//!
//! Each completed job is persisted as `results/cache/<hash>.kv`, where
//! `<hash>` is the FNV-1a hash of the job's canonical cache key (see
//! [`crate::JobSpec::cache_key`]). The file is a flat `field=value` text
//! record carrying the full [`JobOutput`] plus the key itself, which is
//! verified on load so a hash collision degrades to a cache miss instead
//! of serving wrong numbers. Any unparseable or mismatched file is
//! likewise a miss — `rm -rf results/cache` is always safe.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::time::Duration;

use sst_mem::{CacheStats, MemStats};
use sst_sim::{CmpResult, RunResult};
use sst_traffic::{LatencyHistogram, TrafficResult};

use crate::job::JobOutput;

/// The cache directory under an output root.
pub fn cache_dir(out_dir: &Path) -> PathBuf {
    out_dir.join("results").join("cache")
}

fn entry_path(out_dir: &Path, hash: u64) -> PathBuf {
    cache_dir(out_dir).join(format!("{hash:016x}.kv"))
}

/// Stores a job output. Writes via a temporary file + rename so
/// concurrent `sst-run` invocations never observe a torn entry.
pub fn store(out_dir: &Path, hash: u64, key: &str, out: &JobOutput) -> io::Result<()> {
    let dir = cache_dir(out_dir);
    fs::create_dir_all(&dir)?;
    let body = serialize(key, out);
    let tmp = dir.join(format!("{hash:016x}.tmp.{}", std::process::id()));
    fs::write(&tmp, body)?;
    fs::rename(&tmp, entry_path(out_dir, hash))
}

/// Loads a job output, verifying the stored key matches. Returns `None`
/// on a miss, a key mismatch (hash collision), or a corrupt entry.
pub fn load(out_dir: &Path, hash: u64, key: &str) -> Option<JobOutput> {
    let body = fs::read_to_string(entry_path(out_dir, hash)).ok()?;
    deserialize(&body, key)
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

/// Percent-escapes the characters that are structural in the `.kv`
/// format: `%` itself, the `,` pair separator, the `:` name/value
/// separator, and line breaks. Counter names are model-defined strings;
/// without this, a name containing any of those silently corrupts the
/// record (at best a cache miss, at worst a wrong value parsed under a
/// truncated name).
fn escape(name: &str) -> String {
    let mut s = String::with_capacity(name.len());
    for c in name.chars() {
        match c {
            '%' => s.push_str("%25"),
            ',' => s.push_str("%2C"),
            ':' => s.push_str("%3A"),
            '\n' => s.push_str("%0A"),
            '\r' => s.push_str("%0D"),
            _ => s.push(c),
        }
    }
    s
}

fn unescape(name: &str) -> String {
    let mut s = String::with_capacity(name.len());
    let mut rest = name;
    while let Some(pos) = rest.find('%') {
        s.push_str(&rest[..pos]);
        let code = rest.get(pos + 1..pos + 3);
        match code {
            Some("25") => s.push('%'),
            Some("2C") => s.push(','),
            Some("3A") => s.push(':'),
            Some("0A") => s.push('\n'),
            Some("0D") => s.push('\r'),
            _ => s.push('%'),
        }
        let consumed = if matches!(code, Some("25" | "2C" | "3A" | "0A" | "0D")) {
            3
        } else {
            1
        };
        rest = &rest[pos + consumed..];
    }
    s.push_str(rest);
    s
}

fn serialize(key: &str, out: &JobOutput) -> String {
    let mut s = String::new();
    s.push_str(&format!("key={key}\n"));
    match out {
        JobOutput::Run(r) => {
            s.push_str("kind=run\n");
            s.push_str(&format!("model={}\n", r.model));
            s.push_str(&format!("workload={}\n", r.workload));
            s.push_str(&format!("cycles={}\n", r.cycles));
            s.push_str(&format!("insts={}\n", r.insts));
            s.push_str(&format!("warmup_cycles={}\n", r.warmup_cycles));
            s.push_str(&format!("warmup_insts={}\n", r.warmup_insts));
            s.push_str(&format!(
                "inst_mix={}\n",
                r.inst_mix
                    .iter()
                    .map(|v| v.to_string())
                    .collect::<Vec<_>>()
                    .join(",")
            ));
            s.push_str(&format!(
                "counters={}\n",
                r.counters
                    .iter()
                    .map(|(n, v)| format!("{}:{v}", escape(n)))
                    .collect::<Vec<_>>()
                    .join(",")
            ));
            s.push_str(&format!(
                "phases={}\n",
                r.phases
                    .iter()
                    .map(|(n, v)| format!("{}:{v}", escape(n)))
                    .collect::<Vec<_>>()
                    .join(",")
            ));
            write_mem(&mut s, &r.mem);
        }
        JobOutput::Cmp(r) => {
            s.push_str("kind=cmp\n");
            s.push_str(&format!("model={}\n", r.model));
            s.push_str(&format!("cycles={}\n", r.cycles));
            s.push_str(&format!(
                "per_core={}\n",
                r.per_core
                    .iter()
                    .map(|(c, i)| format!("{c}:{i}"))
                    .collect::<Vec<_>>()
                    .join(",")
            ));
            write_mem(&mut s, &r.mem);
        }
        JobOutput::Traffic(r) => {
            s.push_str("kind=traffic\n");
            s.push_str(&format!("model={}\n", r.model));
            s.push_str(&format!("workload={}\n", r.workload));
            s.push_str(&format!("cores={}\n", r.cores));
            s.push_str(&format!("load_permille={}\n", r.load_permille));
            s.push_str(&format!("mean_interarrival={}\n", r.mean_interarrival));
            s.push_str(&format!("cycles={}\n", r.cycles));
            s.push_str(&format!("offered={}\n", r.offered));
            s.push_str(&format!("completed={}\n", r.completed));
            s.push_str(&format!("shed={}\n", r.shed));
            s.push_str(&format!("hist.precision={}\n", r.hist.precision()));
            s.push_str(&format!("hist.max_value={}\n", r.hist.max_value()));
            s.push_str(&format!("hist.saturated={}\n", r.hist.saturated()));
            s.push_str(&format!(
                "hist.buckets={}\n",
                r.hist
                    .nonzero_buckets()
                    .map(|(i, c)| format!("{i}:{c}"))
                    .collect::<Vec<_>>()
                    .join(",")
            ));
            s.push_str(&format!(
                "per_core={}\n",
                r.per_core
                    .iter()
                    .map(|(c, i)| format!("{c}:{i}"))
                    .collect::<Vec<_>>()
                    .join(",")
            ));
            write_mem(&mut s, &r.mem);
        }
    }
    s
}

fn write_mem(s: &mut String, m: &MemStats) {
    let caches = |v: &[CacheStats]| {
        v.iter()
            .map(|c| format!("{}:{}:{}", c.accesses, c.hits, c.writebacks))
            .collect::<Vec<_>>()
            .join(",")
    };
    s.push_str(&format!("mem.l1i={}\n", caches(&m.l1i)));
    s.push_str(&format!("mem.l1d={}\n", caches(&m.l1d)));
    s.push_str(&format!("mem.l2={}\n", caches(std::slice::from_ref(&m.l2))));
    s.push_str(&format!("mem.dram_reads={}\n", m.dram_reads));
    s.push_str(&format!("mem.dram_row_hits={}\n", m.dram_row_hits));
    s.push_str(&format!("mem.dram_writebacks={}\n", m.dram_writebacks));
    s.push_str(&format!("mem.mshr_merges={}\n", m.mshr_merges));
    s.push_str(&format!("mem.mshr_full_delays={}\n", m.mshr_full_delays));
    s.push_str(&format!("mem.prefetches={}\n", m.prefetches));
    s.push_str(&format!("mem.useful_prefetches={}\n", m.useful_prefetches));
}

struct Fields<'a> {
    pairs: Vec<(&'a str, &'a str)>,
}

impl<'a> Fields<'a> {
    fn parse(body: &'a str) -> Fields<'a> {
        Fields {
            pairs: body
                .lines()
                .filter_map(|l| l.split_once('='))
                .collect(),
        }
    }

    fn get(&self, name: &str) -> Option<&'a str> {
        self.pairs
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }

    fn u64(&self, name: &str) -> Option<u64> {
        self.get(name)?.parse().ok()
    }

    fn u64_list(&self, name: &str) -> Option<Vec<u64>> {
        let raw = self.get(name)?;
        if raw.is_empty() {
            return Some(Vec::new());
        }
        raw.split(',').map(|t| t.parse().ok()).collect()
    }

    fn pair_list(&self, name: &str) -> Option<Vec<(String, u64)>> {
        let raw = self.get(name)?;
        if raw.is_empty() {
            return Some(Vec::new());
        }
        raw.split(',')
            .map(|t| {
                let (n, v) = t.split_once(':')?;
                Some((unescape(n), v.parse().ok()?))
            })
            .collect()
    }

    fn cache_list(&self, name: &str) -> Option<Vec<CacheStats>> {
        let raw = self.get(name)?;
        if raw.is_empty() {
            return Some(Vec::new());
        }
        raw.split(',')
            .map(|t| {
                let mut it = t.split(':');
                let c = CacheStats {
                    accesses: it.next()?.parse().ok()?,
                    hits: it.next()?.parse().ok()?,
                    writebacks: it.next()?.parse().ok()?,
                };
                if it.next().is_some() {
                    return None;
                }
                Some(c)
            })
            .collect()
    }

    fn mem(&self) -> Option<MemStats> {
        let mut m = MemStats::new(0);
        m.l1i = self.cache_list("mem.l1i")?;
        m.l1d = self.cache_list("mem.l1d")?;
        m.l2 = *self.cache_list("mem.l2")?.first()?;
        m.dram_reads = self.u64("mem.dram_reads")?;
        m.dram_row_hits = self.u64("mem.dram_row_hits")?;
        m.dram_writebacks = self.u64("mem.dram_writebacks")?;
        m.mshr_merges = self.u64("mem.mshr_merges")?;
        m.mshr_full_delays = self.u64("mem.mshr_full_delays")?;
        m.prefetches = self.u64("mem.prefetches")?;
        m.useful_prefetches = self.u64("mem.useful_prefetches")?;
        Some(m)
    }
}

fn deserialize(body: &str, expected_key: &str) -> Option<JobOutput> {
    let f = Fields::parse(body);
    if f.get("key")? != expected_key {
        return None;
    }
    match f.get("kind")? {
        "run" => {
            let mix = f.u64_list("inst_mix")?;
            if mix.len() != 10 {
                return None;
            }
            let mut inst_mix = [0u64; 10];
            inst_mix.copy_from_slice(&mix);
            Some(JobOutput::Run(RunResult {
                model: f.get("model")?.to_string(),
                workload: f.get("workload")?.to_string(),
                cycles: f.u64("cycles")?,
                insts: f.u64("insts")?,
                warmup_cycles: f.u64("warmup_cycles")?,
                warmup_insts: f.u64("warmup_insts")?,
                mem: f.mem()?,
                counters: f.pair_list("counters")?,
                inst_mix,
                // A missing `phases` field (entries written before the
                // observability layer) is a clean miss: `?` bails.
                phases: f.pair_list("phases")?,
            }))
        }
        "cmp" => {
            let per_core = f
                .pair_list("per_core")?
                .into_iter()
                .map(|(c, i)| Some((c.parse().ok()?, i)))
                .collect::<Option<Vec<(u64, u64)>>>()?;
            Some(JobOutput::Cmp(CmpResult {
                model: f.get("model")?.to_string(),
                per_core,
                cycles: f.u64("cycles")?,
                mem: f.mem()?,
            }))
        }
        "traffic" => {
            let per_core = f
                .pair_list("per_core")?
                .into_iter()
                .map(|(c, i)| Some((c.parse().ok()?, i)))
                .collect::<Option<Vec<(u64, u64)>>>()?;
            let buckets = f
                .pair_list("hist.buckets")?
                .into_iter()
                .map(|(i, c)| Some((i.parse().ok()?, c)))
                .collect::<Option<Vec<(usize, u64)>>>()?;
            let hist = LatencyHistogram::try_from_parts(
                f.u64("hist.precision")? as u32,
                f.u64("hist.max_value")?,
                buckets,
                f.u64("hist.saturated")?,
            )?;
            Some(JobOutput::Traffic(TrafficResult {
                model: f.get("model")?.to_string(),
                workload: f.get("workload")?.to_string(),
                cores: f.u64("cores")? as usize,
                load_permille: f.u64("load_permille")? as u32,
                mean_interarrival: f.u64("mean_interarrival")?,
                cycles: f.u64("cycles")?,
                offered: f.u64("offered")?,
                completed: f.u64("completed")?,
                shed: f.u64("shed")?,
                hist,
                per_core,
                mem: f.mem()?,
            }))
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sst_sim::{CoreModel, System};
    use sst_workloads::{Scale, Workload};

    fn tmp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("sst-harness-cache-{tag}-{}", std::process::id()));
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
        let b = back.run();
        assert_eq!(b.model, r.model);
        assert_eq!(b.workload, r.workload);
        assert_eq!(b.cycles, r.cycles);
        assert_eq!(b.insts, r.insts);
        assert_eq!(b.warmup_cycles, r.warmup_cycles);
        assert_eq!(b.warmup_insts, r.warmup_insts);
        assert_eq!(b.counters, r.counters);
        assert_eq!(b.inst_mix, r.inst_mix);
        assert_eq!(b.phases, r.phases);
        assert_eq!(
            b.phases.iter().map(|(_, v)| v).sum::<u64>(),
            b.cycles,
            "phase rows survive the round-trip summing to total cycles"
        );
        assert_eq!(b.mem.l1d, r.mem.l1d);
        assert_eq!(b.mem.l2, r.mem.l2);
        assert_eq!(b.mem.dram_reads, r.mem.dram_reads);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn hostile_counter_names_round_trip() {
        // Names carrying every structural character of the .kv format —
        // separators, line breaks, the escape character itself, and a
        // literal "%2C" that must NOT collapse to "," after one decode.
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

    #[test]
    fn escape_round_trip_and_lenient_decode() {
        for s in ["", "plain", "%", "%%", "%2", "%2C", "a,b:c\nd\re%f", "%zz"] {
            assert_eq!(unescape(&escape(s)), s, "round-trip of {s:?}");
        }
        // Escaped text never contains structural characters.
        for s in ["a,b", "x:y", "p%q", "n\nl"] {
            let e = escape(s);
            assert!(!e.contains([',', ':', '\n', '\r']), "{e:?}");
        }
        // Decoding tolerates stray escapes it did not produce.
        assert_eq!(unescape("%zz"), "%zz");
        assert_eq!(unescape("tail%"), "tail%");
    }

    #[test]
    fn traffic_round_trips_exactly() {
        use sst_sim::CoreModel;
        use sst_traffic::{run_traffic, Policy, TrafficSpec};
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
        let r = run_traffic(&spec, Scale::Smoke, 3, 1, 1_000_000_000);
        let out = JobOutput::Traffic(r.clone());
        let dir = tmp_dir("traffic");
        store(&dir, 55, "traffic-key", &out).unwrap();
        let back = load(&dir, 55, "traffic-key").expect("hit");
        assert_eq!(back.traffic(), &r, "lossless round-trip incl. histogram");
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
        fs::write(cache_dir(&dir).join(format!("{:016x}.kv", 9u64)), "key=k\nkind=run\n").unwrap();
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
        // Reaping ignores .kv entries and tolerates a missing cache dir.
        store(&dir, 300, "k", &JobOutput::Run(some_run())).unwrap();
        assert_eq!(reap_stale_claims(&dir, Duration::ZERO), 1, "only the re-claim");
        drop(reclaimed);
        assert!(load(&dir, 300, "k").is_some(), "cache entry untouched");
        assert_eq!(reap_stale_claims(&tmp_dir("reap-empty"), Duration::ZERO), 0);
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
