//! Integration tests for the orchestration layer: scheduler determinism
//! across thread counts, cache behavior, and fault isolation (wedged and
//! panicking jobs).

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
    let d = std::env::temp_dir().join(format!("sst-harness-it-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&d);
    fs::create_dir_all(&d).unwrap();
    d
}

fn cfg(out: &Path, jobs: usize, use_cache: bool) -> RunConfig {
    RunConfig {
        jobs,
        sim_threads: 1,
        use_cache,
        out_dir: out.to_path_buf(),
        env: smoke_env(),
        quiet: true,
        shard: None,
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
fn scheduler_output_is_identical_across_thread_counts() {
    let e2 = || vec![registry::find("e2").unwrap()];

    let serial = tmp_out("serial");
    let summary = sched::run(&e2(), &cfg(&serial, 1, false));
    assert!(summary.clean(), "serial run failed: {:?}", summary.failures);

    let parallel = tmp_out("parallel");
    let summary = sched::run(&e2(), &cfg(&parallel, 8, false));
    assert!(
        summary.clean(),
        "parallel run failed: {:?}",
        summary.failures
    );

    let a = output_files(&serial);
    let b = output_files(&parallel);
    assert!(!a.is_empty(), "no outputs written");
    assert!(
        a.contains_key("e2_workloads.csv"),
        "missing csv: {:?}",
        a.keys()
    );
    assert!(a.contains_key("e2.json"), "missing json: {:?}", a.keys());
    assert_eq!(
        a.keys().collect::<Vec<_>>(),
        b.keys().collect::<Vec<_>>(),
        "different file sets"
    );
    for (name, bytes) in &a {
        assert_eq!(bytes, &b[name], "{name} differs between jobs=1 and jobs=8");
    }

    fs::remove_dir_all(&serial).ok();
    fs::remove_dir_all(&parallel).ok();
}

#[test]
fn e14_tables_are_identical_across_jobs_and_sim_threads() {
    // The traffic family's determinism contract, end to end: the emitted
    // CSV/JSON tables are byte-identical whether the sweep runs on 1 or 8
    // workers, and whether each CMP simulates on 1 or 4 threads.
    let e14 = || vec![registry::find("e14").unwrap()];

    let base = tmp_out("e14-base");
    let summary = sched::run(&e14(), &cfg(&base, 1, false));
    assert!(summary.clean(), "e14 failed: {:?}", summary.failures);
    let a = output_files(&base);
    assert!(a.contains_key("e14_load_sst.csv"), "{:?}", a.keys());
    assert!(a.contains_key("e14_knee.csv"), "{:?}", a.keys());
    assert!(a.contains_key("e14.json"), "{:?}", a.keys());

    let jobs8 = tmp_out("e14-jobs8");
    let summary = sched::run(&e14(), &cfg(&jobs8, 8, false));
    assert!(summary.clean(), "{:?}", summary.failures);
    assert_eq!(a, output_files(&jobs8), "jobs=8 must not change a byte");

    let threads4 = tmp_out("e14-threads4");
    let mut c = cfg(&threads4, 2, false);
    c.sim_threads = 4;
    let summary = sched::run(&e14(), &c);
    assert!(summary.clean(), "{:?}", summary.failures);
    assert_eq!(
        a,
        output_files(&threads4),
        "--threads 4 must not change a byte"
    );

    fs::remove_dir_all(&base).ok();
    fs::remove_dir_all(&jobs8).ok();
    fs::remove_dir_all(&threads4).ok();
}

#[test]
fn second_run_is_served_entirely_from_cache() {
    let e2 = || vec![registry::find("e2").unwrap()];
    let out = tmp_out("cache");

    let first = sched::run(&e2(), &cfg(&out, 4, true));
    assert!(first.clean());
    assert_eq!(first.cache_hits, 0, "cold cache must not hit");
    let outputs_first = output_files(&out);

    let second = sched::run(&e2(), &cfg(&out, 4, true));
    assert!(second.clean());
    assert_eq!(
        second.cache_hits, second.total_jobs,
        "warm cache must serve every job"
    );
    assert_eq!(
        outputs_first,
        output_files(&out),
        "cached results must reproduce the outputs exactly"
    );

    // A different seed is a different key: no stale hits.
    let mut c = cfg(&out, 4, true);
    c.env.seed = 8;
    let third = sched::run(&e2(), &c);
    assert!(third.clean());
    assert_eq!(third.cache_hits, 0, "seed change must miss");

    fs::remove_dir_all(&out).ok();
}

#[test]
fn wedged_jobs_are_reported_and_do_not_abort_the_run() {
    // A cycle budget no workload can meet: every job overruns and is
    // reported as a structured "error" failure; the run itself completes
    // and writes the manifest.
    let out = tmp_out("wedged");
    let mut c = cfg(&out, 4, false);
    c.env.max_cycles = 50;

    let exps = vec![registry::find("e2").unwrap()];
    let n_jobs = (exps[0].jobs)(&c.env).len();
    let summary = sched::run(&exps, &c);

    assert_eq!(summary.failures.len(), n_jobs, "every job must overrun");
    for f in &summary.failures {
        assert_eq!(f.kind, "error");
        assert!(f.message.contains("did not halt"), "{}", f.message);
    }

    let manifest = fs::read_to_string(out.join("results/manifest.json")).unwrap();
    assert!(manifest.contains("\"failed_jobs\": 12"));
    assert!(manifest.contains("did not halt"));
    assert!(
        !out.join("results/e2_workloads.csv").exists(),
        "a failed experiment must not emit tables"
    );

    fs::remove_dir_all(&out).ok();
}

#[test]
fn injected_panic_is_isolated_and_recorded() {
    let out = tmp_out("xfail");
    let exps = vec![registry::find("xfail").unwrap()];
    let summary = sched::run(&exps, &cfg(&out, 2, false));

    assert!(!summary.clean());
    assert_eq!(summary.failures.len(), 1);
    let f = &summary.failures[0];
    assert_eq!((f.experiment.as_str(), f.job.as_str()), ("xfail", "boom"));
    assert_eq!(f.kind, "panic");
    assert!(f.message.contains("injected failure"));

    let manifest = fs::read_to_string(out.join("results/manifest.json")).unwrap();
    assert!(manifest.contains("\"kind\": \"panic\""));
    // The sibling job still ran to completion.
    assert!(manifest.contains("\"name\": \"ok/gzip\""));
    assert!(manifest.contains("\"status\": \"ok\""));

    fs::remove_dir_all(&out).ok();
}

#[test]
fn fold_panic_is_recorded_and_cannot_look_clean() {
    // All of xfold's jobs succeed; its fold panics. The run must complete,
    // record a structured "fold-panic" failure, and report unclean.
    let out = tmp_out("xfold");
    let exps = vec![
        registry::find("xfold").unwrap(),
        registry::find("e1").unwrap(),
    ];
    let summary = sched::run(&exps, &cfg(&out, 2, false));

    assert!(!summary.clean(), "a panicking fold must not look clean");
    assert_eq!(summary.failures.len(), 1);
    let f = &summary.failures[0];
    assert_eq!((f.experiment.as_str(), f.job.as_str()), ("xfold", "(fold)"));
    assert_eq!(f.kind, "fold-panic");
    assert!(f.message.contains("injected failure"), "{}", f.message);

    // The sibling experiment still folded and wrote its tables.
    assert!(out.join("results/e1_configs.csv").exists());
    let manifest = fs::read_to_string(out.join("results/manifest.json")).unwrap();
    assert!(manifest.contains("\"kind\": \"fold-panic\""));

    fs::remove_dir_all(&out).ok();
}

#[test]
fn disjoint_experiments_fold_independently_of_failures_elsewhere() {
    // xfail fails; e1 (config tables, no simulation) still folds.
    let out = tmp_out("mixed");
    let exps = vec![
        registry::find("xfail").unwrap(),
        registry::find("e1").unwrap(),
    ];
    let summary = sched::run(&exps, &cfg(&out, 2, false));

    assert_eq!(summary.failures.len(), 1);
    assert!(out.join("results/e1_configs.csv").exists());
    assert!(out.join("results/e1_shared.csv").exists());

    fs::remove_dir_all(&out).ok();
}
