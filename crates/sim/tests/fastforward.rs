//! Fast-forward equivalence suite.
//!
//! Idle-cycle skipping must be invisible in every architected result:
//! for each core model, a run with fast-forwarding enabled and one with
//! it disabled must produce byte-identical `RunResult`s — cycles, commit
//! counts, warm-up accounting, every model counter, the full memory
//! statistics, and the instruction mix. Co-simulation stays on, so the
//! commit streams are also checked instruction by instruction.

use sst_mem::MemConfig;
use sst_sim::{CmpSystem, CoreModel, System};
use sst_workloads::{Scale, Workload};

const MAX_CYCLES: u64 = 200_000_000;

fn assert_equivalent(model: CoreModel, workload: &str) {
    let w = Workload::by_name(workload, Scale::Smoke, 3).unwrap();
    let label = model.label();
    let fast = System::new(model.clone(), &w)
        .run_checked(MAX_CYCLES)
        .unwrap_or_else(|e| panic!("{label} on {workload} (fast-forward): {e}"));
    let slow = System::new(model, &w)
        .without_fast_forward()
        .run_checked(MAX_CYCLES)
        .unwrap_or_else(|e| panic!("{label} on {workload} (cycle-by-cycle): {e}"));
    assert_eq!(
        fast, slow,
        "{label} on {workload}: skipped and unskipped runs diverged"
    );
}

#[test]
fn every_model_matches_on_gzip() {
    for m in CoreModel::lineup() {
        assert_equivalent(m, "gzip");
    }
}

#[test]
fn every_model_matches_on_erp() {
    for m in CoreModel::lineup() {
        assert_equivalent(m, "erp");
    }
}

#[test]
fn cmp_per_core_sleep_matches() {
    for model in [CoreModel::InOrder, CoreModel::Sst] {
        let build = || {
            CmpSystem::mix(
                model.clone(),
                &["gzip", "erp"],
                Scale::Smoke,
                7,
                &MemConfig::default(),
            )
        };
        let fast = build().run(MAX_CYCLES);
        let slow = build().without_fast_forward().run(MAX_CYCLES);
        assert_eq!(
            fast,
            slow,
            "{}: CMP skipped and unskipped runs diverged",
            model.label()
        );
    }
}

/// A tiny budget must time out at the same point whether or not skipping
/// is enabled (the skip target is clamped to the budget).
#[test]
fn timeout_fires_identically() {
    let w = Workload::by_name("oltp", Scale::Smoke, 3).unwrap();
    let fast = System::new(CoreModel::InOrder, &w).run_checked(100).unwrap_err();
    let slow = System::new(CoreModel::InOrder, &w)
        .without_fast_forward()
        .run_checked(100)
        .unwrap_err();
    assert_eq!(fast.at, slow.at);
    assert_eq!(fast.what, slow.what);
}

/// A `System` is a 1-core CMP: both façades drive the same engine, so one
/// program on one core reports the same cycles, instructions and memory
/// statistics through either.
#[test]
fn a_system_is_a_one_core_cmp() {
    let w = Workload::by_name("erp", Scale::Smoke, 3).unwrap();
    for model in [
        CoreModel::InOrder,
        CoreModel::Scout,
        CoreModel::ExecuteAhead,
        CoreModel::Sst,
        CoreModel::Ooo128,
    ] {
        let label = model.label();
        let chip = CmpSystem::from_programs(model.clone(), &[&w.program], &MemConfig::default())
            .run(MAX_CYCLES);
        let single = System::new(model.clone(), &w)
            .without_cosim()
            .run_checked(MAX_CYCLES)
            .unwrap_or_else(|e| panic!("{label}: {e}"));
        assert_eq!(chip.per_core, [(single.cycles, single.insts)], "{label}");
        assert_eq!(chip.cycles, single.cycles, "{label}");
        assert_eq!(chip.mem, single.mem, "{label}");
        // The reference interpreter only watches: with it, the same result.
        let checked = System::new(model, &w)
            .run_checked(MAX_CYCLES)
            .unwrap_or_else(|e| panic!("{label}: {e}"));
        assert_eq!(checked, single, "{label}");
    }
}
