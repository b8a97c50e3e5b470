//! Smoke-scale versions of the paper's experiments (E3-E12 shapes): each
//! assertion checks the *direction* the full harness must reproduce, at a
//! size small enough for CI.

use sst_core::SstConfig;
use sst_mem::MemConfig;
use sst_sim::{area, geomean, CmpSystem, CoreModel, System};
use sst_workloads::{Scale, Workload};

const MAX: u64 = 2_000_000_000;

fn ipc(model: CoreModel, name: &str, seed: u64) -> f64 {
    let w = Workload::by_name(name, Scale::Smoke, seed).expect("known");
    System::measure(model, &w, MAX).measured_ipc()
}

fn ipc_mem(model: CoreModel, name: &str, seed: u64, cfg: &MemConfig) -> f64 {
    let w = Workload::by_name(name, Scale::Smoke, seed).expect("known");
    System::with_mem(model, &w, cfg)
        .run_checked(MAX)
        .expect("cosim clean")
        .measured_ipc()
}

/// E3 shape: scout/EA/SST all speed up the commercial suite over in-order,
/// in that order.
#[test]
fn e3_shape_family_ordering() {
    let mut scout = Vec::new();
    let mut ea = Vec::new();
    let mut sst = Vec::new();
    for name in Workload::commercial_names() {
        let base = ipc(CoreModel::InOrder, name, 50);
        scout.push(ipc(CoreModel::Scout, name, 50) / base);
        ea.push(ipc(CoreModel::ExecuteAhead, name, 50) / base);
        sst.push(ipc(CoreModel::Sst, name, 50) / base);
    }
    let (gs, ge, gt) = (geomean(&scout), geomean(&ea), geomean(&sst));
    assert!(gs > 1.05, "scout speedup {gs:.3}");
    // Smoke scale is cold-dominated, where scout and EA are close; the
    // full-scale harness (E3) shows the clean ordering.
    assert!(ge > gs * 0.95, "ea {ge:.3} vs scout {gs:.3}");
    assert!(gt >= ge, "sst {gt:.3} vs ea {ge:.3}");
}

/// E4 shape (the headline): SST per-thread performance >= the large OoO on
/// the commercial suite.
#[test]
fn e4_shape_sst_vs_ooo() {
    let mut ratios = Vec::new();
    for name in Workload::commercial_names() {
        let sst = ipc(CoreModel::Sst, name, 51);
        let ooo = ipc(CoreModel::Ooo128, name, 51);
        ratios.push(sst / ooo);
    }
    let g = geomean(&ratios);
    assert!(g > 1.0, "SST/ooo-128 geomean on commercial: {g:.3}");
}

/// E5 shape: SST's advantage over in-order grows with memory latency.
#[test]
fn e5_shape_latency_sensitivity() {
    let gain_at = |base: u64| {
        let mut cfg = MemConfig::default();
        cfg.dram.base_cycles = base;
        ipc_mem(CoreModel::Sst, "erp", 52, &cfg) / ipc_mem(CoreModel::InOrder, "erp", 52, &cfg)
    };
    let fast = gain_at(120);
    let slow = gain_at(600);
    assert!(
        slow > fast,
        "advantage must grow with latency: {fast:.3} -> {slow:.3}"
    );
}

/// E6 shape: shrinking the DQ hurts; growing it saturates.
#[test]
fn e6_shape_dq_size() {
    let with_dq = |n: usize| {
        let cfg = SstConfig {
            dq_entries: n,
            ..SstConfig::sst()
        };
        ipc(CoreModel::CustomSst(cfg), "oltp", 53)
    };
    let tiny = with_dq(8);
    let small = with_dq(32);
    let big = with_dq(256);
    // Floating-point display rounding can make equal-looking values differ
    // in the last ulp; compare with a tolerance.
    assert!(
        small >= tiny * 0.98,
        "dq 32 ({small:.3}) >= dq 8 ({tiny:.3})"
    );
    assert!(big >= small * 0.98, "dq 256 must not collapse");
    assert!(big > tiny * 0.99, "bigger DQ never hurts materially");
}

/// E7 shape: checkpoints 1 -> 2 helps (EA -> SST); more saturates.
#[test]
fn e7_shape_checkpoints() {
    let with_ck = |n: usize| {
        let cfg = SstConfig {
            checkpoints: n,
            ..SstConfig::sst()
        };
        ipc(CoreModel::CustomSst(cfg), "oltp", 54)
    };
    let one = with_ck(1);
    let two = with_ck(2);
    let eight = with_ck(8);
    assert!(two >= one, "2 ckpts ({two:.3}) >= 1 ({one:.3})");
    assert!(eight >= two * 0.97, "8 ckpts must not collapse");
}

/// E8 shape: the store buffer bounds speculation depth on store-heavy code.
#[test]
fn e8_shape_stb_size() {
    let with_stb = |n: usize| {
        let cfg = SstConfig {
            stb_entries: n,
            ..SstConfig::sst()
        };
        ipc(CoreModel::CustomSst(cfg), "gups", 55)
    };
    let tiny = with_stb(2);
    let normal = with_stb(64);
    assert!(
        normal > tiny,
        "stb 64 ({normal:.3}) must beat stb 2 ({tiny:.3}) on gups"
    );
}

/// E9 shape: SST's structures are far cheaper than the big OoO's, so its
/// perf/cost leads even where raw perf ties.
#[test]
fn e9_shape_area_efficiency() {
    let sst_cost = area::model_area(&CoreModel::Sst).weighted_cost();
    let ooo_cost = area::model_area(&CoreModel::Ooo128).weighted_cost();
    assert!(
        ooo_cost > sst_cost * 1.5,
        "ooo {ooo_cost} vs sst {sst_cost}"
    );
    let sst_perf = ipc(CoreModel::Sst, "oltp", 56);
    let ooo_perf = ipc(CoreModel::Ooo128, "oltp", 56);
    let sst_eff = sst_perf / sst_cost;
    let ooo_eff = ooo_perf / ooo_cost;
    assert!(
        sst_eff > ooo_eff * 1.3,
        "perf-per-cost must favour SST: {sst_eff:.2e} vs {ooo_eff:.2e}"
    );
}

/// E10 shape: CMP throughput grows with cores but sub-linearly under the
/// shared L2/DRAM.
#[test]
fn e10_shape_cmp_scaling() {
    let tp = |n: usize| {
        CmpSystem::homogeneous(
            CoreModel::Sst,
            "erp",
            Scale::Smoke,
            57,
            n,
            &MemConfig::default(),
        )
        .run(MAX)
        .throughput_ipc()
    };
    let one = tp(1);
    let four = tp(4);
    assert!(four > one * 1.8, "4 cores ({four:.3}) vs 1 ({one:.3})");
    assert!(four < one * 4.2, "no super-linear artifacts");
}

/// E11 shape: SST overlaps misses that the in-order core serializes.
#[test]
fn e11_shape_mlp() {
    let w = Workload::by_name("gups", Scale::Smoke, 58).unwrap();
    let r = System::measure(CoreModel::Sst, &w, MAX);
    // gups has abundant independent misses; SST must overlap them.
    let w2 = Workload::by_name("gups", Scale::Smoke, 58).unwrap();
    let base = System::measure(CoreModel::InOrder, &w2, MAX);
    assert!(
        r.measured_ipc() > base.measured_ipc() * 1.3,
        "sst {:.3} vs inorder {:.3}",
        r.measured_ipc(),
        base.measured_ipc()
    );
}

/// E12 shape: deferred-branch failures happen on branch-behind-miss code
/// but stay a minority of episodes.
#[test]
fn e12_shape_failures() {
    use sst_core::SstCore;
    use sst_mem::MemSystem;
    use sst_uarch::Core;

    let run = |name: &str| {
        let w = Workload::by_name(name, Scale::Smoke, 59).unwrap();
        let mut mem = MemSystem::new(&MemConfig::default(), 1);
        w.program.load_into(mem.mem_mut());
        let mut core = SstCore::new(SstConfig::sst(), 0, &w.program);
        while !core.halted() && core.cycle() < MAX {
            core.tick(&mut mem.bus(0));
        }
        assert!(core.halted());
        core.stats
    };
    // oltp's ~50/50 row predicate sits behind a miss: failures must occur.
    let oltp = run("oltp");
    assert!(
        oltp.fail_branch > 0,
        "oltp's data-dependent branches must sometimes fail"
    );
    // erp's branches are predictable: commits must dominate there.
    let erp = run("erp");
    assert!(
        erp.epochs_committed > erp.fail_branch,
        "commits ({}) should dominate failures ({}) on erp",
        erp.epochs_committed,
        erp.fail_branch
    );
}
