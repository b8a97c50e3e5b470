//! `run_sampled` applies functional warming's cache-tag touches on one
//! worker thread per call; every call must take its worker down with it.
//!
//! The thread count is process-wide, so this check has a test binary to
//! itself: in a binary with other tests, their threads come and go
//! while it counts.

use std::time::{Duration, Instant};

use sst_sim::{run_sampled, CoreModel, SamplingConfig};
use sst_workloads::{Scale, Workload};

/// The `Threads:` line of `/proc/self/status`.
fn threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|n| n.trim().parse().ok())
        .expect("a Threads line")
}

#[test]
#[cfg(target_os = "linux")]
fn back_to_back_sampled_runs_leave_the_thread_count_where_it_started() {
    let w = Workload::by_name("gzip", Scale::Smoke, 3).unwrap();
    let cfg = SamplingConfig {
        period: 20_000,
        interval: 2_000,
        warm: 2_000,
        ..SamplingConfig::default()
    };
    let before = threads();
    for _ in 0..200 {
        run_sampled(CoreModel::InOrder, &w, &cfg).unwrap();
    }
    // A joined worker can take a moment to leave the kernel's count; a
    // leaked one never does.
    let deadline = Instant::now() + Duration::from_secs(10);
    while threads() != before && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(threads(), before);
}
