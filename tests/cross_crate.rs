//! Cross-crate integration: workloads x models x memory configurations,
//! exercising the whole stack (assembler -> program image -> frontend ->
//! core -> hierarchy -> commit -> checker) through the public APIs only.

use sst_mem::{CacheConfig, MemConfig};
use sst_sim::{geomean, CoreModel, System};
use sst_workloads::{Scale, Workload};

const MAX: u64 = 2_000_000_000;

#[test]
fn full_matrix_smoke_cosim() {
    // Every workload on a representative model subset, fully co-simulated.
    for name in Workload::all_names() {
        for model in [CoreModel::InOrder, CoreModel::Sst, CoreModel::Ooo64] {
            let label = model.label();
            let w = Workload::by_name(name, Scale::Smoke, 21).expect("known");
            let r = System::new(model, &w)
                .run_checked(MAX)
                .unwrap_or_else(|e| panic!("{name} on {label}: {e}"));
            assert!(r.insts > 0);
            assert!(r.measured_ipc() > 0.0, "{name}/{label}");
        }
    }
}

#[test]
fn sst_wins_where_the_paper_says_it_should() {
    // On the commercial suite, SST's per-thread performance should lead
    // the in-order core substantially and stay competitive with the large
    // OoO; on cache-resident compute (matmul/gzip) the OoO should win.
    let mut sst_over_inorder = Vec::new();
    let mut sst_over_ooo = Vec::new();
    for name in Workload::commercial_names() {
        let run = |m: CoreModel| {
            let w = Workload::by_name(name, Scale::Smoke, 33).expect("known");
            System::measure(m, &w, MAX).measured_ipc()
        };
        let sst = run(CoreModel::Sst);
        sst_over_inorder.push(sst / run(CoreModel::InOrder));
        sst_over_ooo.push(sst / run(CoreModel::Ooo128));
    }
    let vs_inorder = geomean(&sst_over_inorder);
    let vs_ooo = geomean(&sst_over_ooo);
    assert!(
        vs_inorder > 1.25,
        "SST vs in-order on commercial: {vs_inorder:.3}"
    );
    assert!(vs_ooo > 0.95, "SST vs ooo-128 on commercial: {vs_ooo:.3}");

    // Compute-bound: the wide OoO may lead.
    let w = Workload::by_name("matmul", Scale::Smoke, 33).unwrap();
    let sst = System::measure(CoreModel::Sst, &w, MAX).measured_ipc();
    let w = Workload::by_name("matmul", Scale::Smoke, 33).unwrap();
    let ooo = System::measure(CoreModel::Ooo128, &w, MAX).measured_ipc();
    assert!(
        ooo > sst * 0.95,
        "wide OoO should at least match SST on matmul: ooo {ooo:.3} sst {sst:.3}"
    );
}

#[test]
fn custom_memory_config_flows_through() {
    // A tiny L2 raises the L2 miss rate; the run must still co-simulate.
    let cfg = MemConfig {
        l2: CacheConfig {
            size_bytes: 64 * 1024,
            ways: 4,
            line_bytes: 64,
        },
        ..MemConfig::default()
    };
    let w = Workload::by_name("erp", Scale::Smoke, 5).unwrap();
    let small = System::with_mem(CoreModel::Sst, &w, &cfg)
        .run_checked(MAX)
        .unwrap();
    let w = Workload::by_name("erp", Scale::Smoke, 5).unwrap();
    let big = System::new(CoreModel::Sst, &w).run_checked(MAX).unwrap();
    assert!(
        small.mem.l2.miss_rate() > big.mem.l2.miss_rate(),
        "shrinking the L2 must raise its miss rate"
    );
    assert!(
        small.mem.dram_reads > big.mem.dram_reads,
        "more L2 misses must mean more DRAM fills: {} vs {}",
        small.mem.dram_reads,
        big.mem.dram_reads
    );
}

#[test]
fn mlp_microbenchmarks_bracket_the_mechanism() {
    // chase (MLP 1): SST gains little. mlp8: SST gains a lot.
    let run = |name: &str, m: CoreModel| {
        let w = Workload::by_name(name, Scale::Smoke, 9).expect("known");
        System::measure(m, &w, MAX).measured_ipc()
    };
    let chase_gain = run("chase", CoreModel::Sst) / run("chase", CoreModel::InOrder);
    let mlp8_gain = run("mlp8", CoreModel::Sst) / run("mlp8", CoreModel::InOrder);
    assert!(
        mlp8_gain > chase_gain * 1.5,
        "SST must exploit MLP: chase {chase_gain:.2}, mlp8 {mlp8_gain:.2}"
    );
    assert!(chase_gain > 0.85, "no big loss on pure chase: {chase_gain:.2}");
}

/// FNV-1a, 64-bit.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The snapshot codec's output for the smoke-scale oltp image, as loaded
/// and after a million instructions: (memory bytes, their FNV-1a, FNV-1a
/// of the whole interpreter's state). Pinned when `SparseMem` kept every
/// page in a hash map; however pages are stored, the bytes must not move.
#[test]
fn oltp_image_snapshots_to_pinned_bytes() {
    use sst_isa::{Interp, SnapWriter};
    let w = Workload::by_name("oltp", Scale::Smoke, 12345).expect("known");
    let mut interp = Interp::new(&w.program);
    let image = |interp: &Interp| {
        let mut mem = SnapWriter::new();
        interp.mem().save_state(&mut mem);
        let mut whole = SnapWriter::new();
        interp.save_state(&mut whole);
        let (mem, whole) = (mem.into_bytes(), whole.into_bytes());
        (mem.len(), fnv1a(&mem), fnv1a(&whole))
    };
    let loaded = image(&interp);
    interp.run(1_000_000).expect("oltp runs");
    let ran = image(&interp);
    let pinned_loaded = (2_142_300, 0xd3e4_fcd6_c391_3c4b, 0x0ae2_98fd_491e_33af);
    let pinned_ran = (2_146_404, 0x0c43_b615_c067_407f, 0xb902_4684_7371_0fe8);
    assert_eq!((loaded, ran), (pinned_loaded, pinned_ran));
}
