//! Determinism and paper-claim sanity checks for the traffic subsystem.
//!
//! The contract under test: for a fixed `(spec, scale, seed)`, the
//! per-request trace and the aggregate result are **byte-identical**
//! regardless of the simulation thread count — global dispatch decisions
//! happen only at quantum boundaries, on one thread.

use sst_sim::CoreModel;
use sst_traffic::{run_traffic_full, Policy, TrafficSpec};
use sst_workloads::Scale;

fn spec(model: CoreModel, load_permille: u32) -> TrafficSpec {
    TrafficSpec {
        model,
        workload: "oltp".into(),
        cores: 3,
        load_permille,
        txns_per_request: 4,
        requests: 48,
        warmup: 8,
        admission_cap: 24,
        lane_cap: 4,
        quantum: 256,
        policy: Policy::LeastLoaded,
    }
}

#[test]
fn trace_is_identical_across_thread_counts() {
    let s = spec(CoreModel::Sst, 400);
    let base = run_traffic_full(&s, Scale::Smoke, 11, 1, 2_000_000_000);
    assert_eq!(
        base.result.completed + base.result.shed,
        base.result.offered,
        "every request must complete or shed"
    );
    for threads in [2, 4] {
        let other = run_traffic_full(&s, Scale::Smoke, 11, threads, 2_000_000_000);
        assert_eq!(base.records, other.records, "threads={threads}");
        assert_eq!(base.result, other.result, "threads={threads}");
    }
}

#[test]
fn overload_sheds_and_underload_does_not() {
    let light = run_traffic_full(
        &spec(CoreModel::InOrder, 50),
        Scale::Smoke,
        5,
        1,
        2_000_000_000,
    );
    assert_eq!(light.result.shed, 0, "5% load must not shed");
    assert_eq!(light.result.completed, light.result.offered);

    // Far beyond saturation with tiny queues: sheds must appear.
    let mut s = spec(CoreModel::InOrder, 1000);
    s.load_permille = 5000; // 5x nominal capacity
    s.admission_cap = 4;
    s.lane_cap = 2;
    let heavy = run_traffic_full(&s, Scale::Smoke, 5, 1, 2_000_000_000);
    assert!(heavy.result.shed > 0, "5x overload with cap 4 must shed");
    assert_eq!(heavy.result.completed + heavy.result.shed, heavy.result.offered);
}

#[test]
fn latency_is_sane_and_histogram_counts_match() {
    let run = run_traffic_full(
        &spec(CoreModel::Sst, 200),
        Scale::Smoke,
        3,
        1,
        2_000_000_000,
    );
    let r = &run.result;
    // Histogram holds exactly the post-warm-up completions.
    let expected = run
        .records
        .iter()
        .enumerate()
        .filter(|(i, rec)| (*i as u64) >= 8 && rec.completion.is_some())
        .count() as u64;
    assert_eq!(r.hist.count(), expected);
    let p50 = r.hist.percentile_permille(500).unwrap();
    let p99 = r.hist.percentile_permille(990).unwrap();
    // A request is >= 220 instructions; latency below that is impossible,
    // and percentiles must be ordered.
    assert!(p50 >= 100, "p50 {p50} impossibly small");
    assert!(p99 >= p50);
    // Completion at or after arrival, on the dispatched core.
    for rec in &run.records {
        if let Some(c) = rec.completion {
            assert!(c >= rec.arrival);
            assert!(rec.core.is_some());
            assert!(!rec.shed);
        }
    }
}

/// The paper's service-level claim, smoke scale: below the knee, SST's
/// tail latency is no worse than the in-order baseline's on the OLTP mix
/// (SST hides the misses that stall an in-order pipeline).
#[test]
fn sst_p99_beats_in_order_below_the_knee() {
    let lo = |model| {
        let s = spec(model, 150);
        run_traffic_full(&s, Scale::Smoke, 9, 1, 2_000_000_000)
            .result
            .hist
            .percentile_permille(990)
            .unwrap()
    };
    let sst = lo(CoreModel::Sst);
    let inorder = lo(CoreModel::InOrder);
    assert!(
        sst <= inorder,
        "p99 at 15% load: sst {sst} should be <= in-order {inorder}"
    );
}
