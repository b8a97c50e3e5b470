//! Fast-forward equivalence suite.
//!
//! Idle-cycle skipping must be invisible in every architected result:
//! for each core model, a run with fast-forwarding enabled and one with
//! it disabled must produce byte-identical `RunResult`s — cycles, commit
//! counts, warm-up accounting, every model counter, the full memory
//! statistics, and the instruction mix. Co-simulation stays on, so the
//! commit streams are also checked instruction by instruction.
//!
//! Beyond the stock models, the suite drives configurations at the edges
//! of each model's stall gates — one- and two-entry deferred queues, a
//! one-entry store buffer, the confidence gate, a one-wide core, four
//! checkpoints, one-entry issue/load/store queues and a two-entry ROB —
//! over the miss-heavy workloads, where deferral, replay, rollback and
//! idle-cycle skipping dominate.

use sst_core::SstConfig;
use sst_mem::MemConfig;
use sst_ooo::OooConfig;
use sst_sim::{CmpSystem, CoreModel, System};
use sst_uarch::FrontendConfig;
use sst_workloads::{Scale, Workload};

const MAX_CYCLES: u64 = 200_000_000;

/// The workloads whose runs are dominated by misses.
const MISS_HEAVY: [&str; 8] = ["oltp", "chase", "mcf", "gcc", "web", "mlp8", "gups", "erp"];

fn assert_equivalent(model: CoreModel, workload: &str) {
    let w = Workload::by_name(workload, Scale::Smoke, 3).unwrap();
    let label = format!("{model:?}");
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

/// Scout, execute-ahead and SST with `base`'s policy and each degenerate
/// sizing: DQ 1 and 2, STB 1, the confidence gate, and a one-wide core
/// with one DQ and one STB entry.
fn degenerate_sst(base: SstConfig) -> Vec<CoreModel> {
    let tiny = SstConfig {
        width: 1,
        frontend: FrontendConfig {
            width: 1,
            ..base.frontend
        },
        dq_entries: 1,
        stb_entries: 1,
        ..base.clone()
    };
    [
        SstConfig {
            dq_entries: 1,
            ..base.clone()
        },
        SstConfig {
            dq_entries: 2,
            ..base.clone()
        },
        SstConfig {
            stb_entries: 1,
            ..base.clone()
        },
        SstConfig {
            confidence_gate: true,
            ..base.clone()
        },
        tiny,
    ]
    .into_iter()
    .map(CoreModel::CustomSst)
    .collect()
}

fn assert_equivalent_on_miss_heavy(models: Vec<CoreModel>) {
    for workload in MISS_HEAVY {
        for m in &models {
            assert_equivalent(m.clone(), workload);
        }
    }
}

#[test]
fn degenerate_scout_matches_on_miss_heavy() {
    assert_equivalent_on_miss_heavy(degenerate_sst(SstConfig::scout()));
}

#[test]
fn degenerate_execute_ahead_matches_on_miss_heavy() {
    assert_equivalent_on_miss_heavy(degenerate_sst(SstConfig::execute_ahead()));
}

#[test]
fn degenerate_sst_matches_on_miss_heavy() {
    let mut models = degenerate_sst(SstConfig::sst());
    models.push(CoreModel::CustomSst(SstConfig {
        checkpoints: 4,
        ..SstConfig::sst()
    }));
    assert_equivalent_on_miss_heavy(models);
}

#[test]
fn degenerate_ooo_matches_on_miss_heavy() {
    let base = OooConfig::ooo_32();
    let models = [
        OooConfig {
            iq_entries: 1,
            ..base.clone()
        },
        OooConfig {
            lq_entries: 1,
            ..base.clone()
        },
        OooConfig {
            sq_entries: 1,
            ..base.clone()
        },
        OooConfig {
            rob_entries: 2,
            ..base
        },
    ];
    assert_equivalent_on_miss_heavy(models.into_iter().map(CoreModel::CustomOoo).collect());
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
    let fast = System::new(CoreModel::InOrder, &w)
        .run_checked(100)
        .unwrap_err();
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
