//! Probes are observational: the equivalence suite of `sst_obs::Probes`.
//!
//! A core's three record-only probes — the event ring, the host stage
//! timers and speculation taint — may allocate their own state, but they
//! must never touch timing, architectural state, counters, or
//! memory-system statistics. What they record is reported only through
//! `System::run_with_trace`, `System::run_with_profile` and
//! `System::run_with_leakage` — never through `RunResult` — precisely so
//! this suite can demand *byte-identical* results with each probe on and
//! off.
//!
//! Covered: all five compared models (in-order / scout / execute-ahead /
//! SST / OoO) on a replay-heavy commercial workload and on the E13
//! gadget whose rollback churn stresses every sweep path. Co-simulation
//! stays on, so commit streams are also checked instruction by
//! instruction. One plain run per pair is the baseline: the traced,
//! profiled and tainted runs must each equal it, and its per-phase rows
//! must sum exactly to its cycles. On the gadget every speculating model
//! must also report rollbacks, so the taint axis cannot be silently off.

use sst_obs::LeakageSummary;
use sst_sim::{CoreModel, System};
use sst_workloads::{Scale, Workload};

const MAX_CYCLES: u64 = 200_000_000;
const MODELS: [CoreModel; 5] = [
    CoreModel::InOrder,
    CoreModel::Scout,
    CoreModel::ExecuteAhead,
    CoreModel::Sst,
    CoreModel::Ooo32,
];

/// Runs every model on `wname` plain, traced, profiled and tainted,
/// checks each probed run against the plain one, and returns each
/// model's label with its leakage summary.
fn observe(wname: &str) -> Vec<(String, LeakageSummary)> {
    let w = Workload::by_name(wname, Scale::Smoke, 3).unwrap();
    let mut leaks = Vec::new();
    for model in MODELS {
        let label = format!("{} on {wname}", model.label());
        let plain = System::new(model.clone(), &w)
            .run_checked(MAX_CYCLES)
            .unwrap_or_else(|e| panic!("{label} (plain): {e}"));

        // Every cycle the run took lands in exactly one phase row — the
        // table is a partition of the timeline, not a sample.
        let total: u64 = plain.phases.iter().map(|&(_, v)| v).sum();
        assert!(!plain.phases.is_empty(), "{label}: no phase rows");
        assert_eq!(
            total, plain.cycles,
            "{label}: phase rows sum to {total}, run took {} cycles",
            plain.cycles
        );

        let (traced, trace) = System::new(model.clone(), &w)
            .with_tracing()
            .run_with_trace(MAX_CYCLES)
            .unwrap_or_else(|e| panic!("{label} (traced): {e}"));
        assert_eq!(plain, traced, "{label}: tracing changed the run");
        let core = trace.core.expect("tracing was enabled");
        assert!(!core.is_empty(), "{label}: core ring is empty");

        let (profiled, times) = System::new(model.clone(), &w)
            .with_host_prof()
            .run_with_profile(MAX_CYCLES)
            .unwrap_or_else(|e| panic!("{label} (profiled): {e}"));
        assert_eq!(plain, profiled, "{label}: profiling changed the run");
        let times = times.expect("profiling was enabled");
        assert!(
            times.total_ns() > 0,
            "{label}: profiled run recorded no time"
        );

        let (tainted, leak) = System::new(model, &w)
            .run_with_leakage(MAX_CYCLES)
            .unwrap_or_else(|e| panic!("{label} (tainted): {e}"));
        assert_eq!(plain, tainted, "{label}: taint changed the run");
        leaks.push((label, leak));
    }
    leaks
}

#[test]
fn probes_are_observational_on_oltp() {
    observe("oltp");
}

#[test]
fn probes_are_observational_on_g_bcb() {
    let leaks = observe("g_bcb");
    let (label, in_order) = &leaks[0];
    assert_eq!(
        *in_order,
        LeakageSummary::default(),
        "{label}: a core without checkpoints recorded taint"
    );
    for (label, leak) in &leaks[1..] {
        assert!(leak.rollbacks > 0, "{label}: taint swept no rollback");
    }
}
