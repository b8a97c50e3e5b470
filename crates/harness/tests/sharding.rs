//! Scale-out invariants: `--shard i/n` partitioning merges to exactly
//! the unsharded outputs, and concurrent schedulers sharing one cache
//! never execute the same job twice (claim files).

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

use sst_harness::sched::{self, RunConfig};
use sst_harness::{registry, Env};
use sst_workloads::Scale;

fn smoke_env() -> Env {
    Env {
        scale: Scale::Smoke,
        seed: 7,
        max_cycles: 100_000_000,
    }
}

fn tmp_out(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("sst-shard-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&d);
    fs::create_dir_all(&d).unwrap();
    d
}

fn cfg(out: &Path, shard: Option<(usize, usize)>) -> RunConfig {
    RunConfig {
        jobs: 4,
        sim_threads: 1,
        use_cache: true,
        out_dir: out.to_path_buf(),
        env: smoke_env(),
        quiet: true,
        shard,
    }
}

/// Every output file under `results/` (except the cache), name -> bytes.
fn output_files(out: &Path) -> BTreeMap<String, Vec<u8>> {
    let mut files = BTreeMap::new();
    for entry in fs::read_dir(out.join("results")).unwrap() {
        let entry = entry.unwrap();
        if entry.file_type().unwrap().is_dir() {
            continue; // results/cache
        }
        let name = entry.file_name().into_string().unwrap();
        if name == "manifest.json" {
            continue; // carries durations; not expected to be stable
        }
        files.insert(name, fs::read(entry.path()).unwrap());
    }
    files
}

#[test]
fn sharded_runs_merge_to_the_unsharded_outputs() {
    let e2 = || vec![registry::find("e2").unwrap()];

    // Reference: one unsharded run.
    let reference = tmp_out("ref");
    let summary = sched::run(&e2(), &cfg(&reference, None));
    assert!(summary.clean(), "reference failed: {:?}", summary.failures);
    let want = output_files(&reference);
    assert!(!want.is_empty(), "reference produced no outputs");

    // Sharded: two sequential passes over one shared output directory,
    // then a final unsharded pass that folds entirely from the cache.
    let sharded = tmp_out("parts");
    let shard0 = sched::run(&e2(), &cfg(&sharded, Some((0, 2))));
    assert!(shard0.clean(), "shard 0/2 failed: {:?}", shard0.failures);
    assert_eq!(shard0.cache_hits, 0, "cold cache must not hit");

    let shard1 = sched::run(&e2(), &cfg(&sharded, Some((1, 2))));
    assert!(shard1.clean(), "shard 1/2 failed: {:?}", shard1.failures);
    assert_eq!(
        shard1.cache_hits,
        shard0.executed_jobs(),
        "shard 1 must see exactly shard 0's published results as hits"
    );

    // Deterministic partition: together the shards execute each job
    // exactly once.
    assert_eq!(
        shard0.executed_jobs() + shard1.executed_jobs(),
        shard0.total_jobs,
        "shards must partition the job set"
    );

    let merged = sched::run(&e2(), &cfg(&sharded, None));
    assert!(merged.clean(), "merge pass failed: {:?}", merged.failures);
    assert_eq!(
        merged.cache_hits, merged.total_jobs,
        "merge pass must fold purely from the shared cache"
    );

    let got = output_files(&sharded);
    assert_eq!(
        want.keys().collect::<Vec<_>>(),
        got.keys().collect::<Vec<_>>(),
        "different file sets"
    );
    for (name, bytes) in &want {
        assert_eq!(bytes, &got[name], "{name} differs: sharded vs unsharded");
    }

    fs::remove_dir_all(&reference).ok();
    fs::remove_dir_all(&sharded).ok();
}

#[test]
fn out_of_range_shards_execute_nothing() {
    // `hash % n == i` with i >= n can never be true; the CLI rejects such
    // specs, but the scheduler itself must also stay safe if handed one.
    let e2 = || vec![registry::find("e2").unwrap()];
    let out = tmp_out("oob");
    let summary = sched::run(&e2(), &cfg(&out, Some((5, 2))));
    assert_eq!(summary.executed_jobs(), 0);
    assert!(summary.failures.is_empty(), "{:?}", summary.failures);
    fs::remove_dir_all(&out).ok();
}

#[test]
fn concurrent_schedulers_never_duplicate_an_execution() {
    // Two schedulers race over the same output directory with the cache
    // on — the model for N `sst-run all` processes on one machine. Claim
    // files must make every job execute exactly once across the pair;
    // the loser of each claim serves the winner's published result.
    let out = tmp_out("race");
    let (a, b) = std::thread::scope(|scope| {
        let ja = scope.spawn(|| sched::run(&[registry::find("e2").unwrap()], &cfg(&out, None)));
        let jb = scope.spawn(|| sched::run(&[registry::find("e2").unwrap()], &cfg(&out, None)));
        (ja.join().unwrap(), jb.join().unwrap())
    });
    assert!(a.clean(), "scheduler A failed: {:?}", a.failures);
    assert!(b.clean(), "scheduler B failed: {:?}", b.failures);
    assert_eq!(a.total_jobs, b.total_jobs);
    assert_eq!(
        a.executed_jobs() + b.executed_jobs(),
        a.total_jobs,
        "every job must execute exactly once across both schedulers \
         (A ran {}, B ran {}, {} cached apiece)",
        a.executed_jobs(),
        b.executed_jobs(),
        a.cache_hits,
    );
    // No claim files may survive a clean run.
    let cache = out.join("results").join("cache");
    let leftover: Vec<_> = fs::read_dir(&cache)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().into_string().unwrap())
        .filter(|n| n.ends_with(".claim"))
        .collect();
    assert!(leftover.is_empty(), "stale claims: {leftover:?}");
    fs::remove_dir_all(&out).ok();
}
