//! Event-wakeup equivalence suite.
//!
//! The SST cores' **event-driven replay wakeup** only changes what window
//! `next_event_cycle` vouches to the fast-forward driver, never the replay
//! schedule itself. For scout, execute-ahead and SST on two workloads —
//! `gzip` (compute-heavy) and `oltp` (the replay-heavy pointer-chaser that
//! motivated the mechanism) — a run with it disabled must produce a
//! byte-identical `RunResult`: cycles, commits, every model counter, the
//! memory statistics, the instruction mix. Co-simulation stays on, so
//! commit streams are also checked instruction by instruction.

use sst_core::SstConfig;
use sst_sim::{CoreModel, System};
use sst_workloads::{Scale, Workload};

const MAX_CYCLES: u64 = 200_000_000;
const WORKLOADS: [&str; 2] = ["gzip", "oltp"];

fn run(model: CoreModel, workload: &str, what: &str) -> sst_sim::RunResult {
    let w = Workload::by_name(workload, Scale::Smoke, 3).unwrap();
    let label = model.label();
    System::new(model, &w)
        .run_checked(MAX_CYCLES)
        .unwrap_or_else(|e| panic!("{label} on {workload} ({what}): {e}"))
}

#[test]
fn event_wakeup_off_is_byte_identical() {
    for workload in WORKLOADS {
        for base in [
            SstConfig::scout(),
            SstConfig::execute_ahead(),
            SstConfig::sst(),
        ] {
            let mut slow = base.clone();
            slow.event_wakeup = false;
            let label = base.label();
            let a = run(CoreModel::CustomSst(base), workload, "event wakeup on");
            let b = run(CoreModel::CustomSst(slow), workload, "event wakeup off");
            assert_eq!(
                a, b,
                "{label} on {workload}: event-wakeup on/off runs diverged"
            );
        }
    }
}

/// The conservative configuration still matches the default model for
/// the paper's SST design point.
#[test]
fn fully_conservative_sst_matches_default() {
    for workload in WORKLOADS {
        let mut cold = SstConfig::sst();
        cold.event_wakeup = false;
        let a = run(CoreModel::Sst, workload, "default");
        let b = run(CoreModel::CustomSst(cold), workload, "conservative");
        assert_eq!(a, b, "sst on {workload}: conservative run diverged");
    }
}
