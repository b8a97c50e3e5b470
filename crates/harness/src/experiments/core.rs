//! E1–E4: the configuration table, workload characterization, the
//! mechanism-family speedups, and the headline SST-vs-OoO comparison.

use sst_core::SstConfig;
use sst_inorder::InOrderConfig;
use sst_isa::InstClass;
use sst_mem::MemConfig;
use sst_ooo::OooConfig;
use sst_sim::report::{f2, f3, pct, Table};
use sst_sim::{geomean, CoreModel};
use sst_uarch::FrontendConfig;
use sst_workloads::Workload;

use super::class_of;
use crate::job::JobSpec;
use crate::registry::{Experiment, Fold, RunCtx};
use crate::Env;

pub(super) fn e1() -> Experiment {
    fn jobs(_env: &Env) -> Vec<JobSpec> {
        Vec::new() // pure configuration tables — nothing to simulate
    }
    fn fold(_env: &Env, _ctx: &RunCtx) -> Fold {
        let mut f = Fold::default();

        let mut t = Table::new([
            "model",
            "width",
            "checkpoints",
            "DQ",
            "store buffer",
            "ROB",
            "issue queue",
            "LQ/SQ",
            "D$ ports",
        ]);
        let io = InOrderConfig::default();
        t.row([
            "in-order".to_string(),
            io.width.to_string(),
            "-".into(),
            "-".into(),
            "-".into(),
            "-".into(),
            "-".into(),
            "-".into(),
            io.dcache_ports.to_string(),
        ]);
        for cfg in [SstConfig::scout(), SstConfig::execute_ahead(), SstConfig::sst()] {
            t.row([
                cfg.label(),
                cfg.width.to_string(),
                cfg.checkpoints.to_string(),
                cfg.dq_entries.to_string(),
                cfg.stb_entries.to_string(),
                "-".into(),
                "-".into(),
                "-".into(),
                cfg.dcache_ports.to_string(),
            ]);
        }
        for cfg in [OooConfig::ooo_32(), OooConfig::ooo_64(), OooConfig::ooo_128()] {
            t.row([
                cfg.label(),
                cfg.issue_width.to_string(),
                "-".into(),
                "-".into(),
                "-".into(),
                cfg.rob_entries.to_string(),
                cfg.iq_entries.to_string(),
                format!("{}/{}", cfg.lq_entries, cfg.sq_entries),
                cfg.dcache_ports.to_string(),
            ]);
        }
        f.table("e1_configs", t);

        let fe = FrontendConfig::default();
        let mem = MemConfig::default();
        let mut shared = Table::new(["shared component", "value"]);
        shared.row(["direction predictor", &format!("{:?}", fe.predictor)]);
        shared.row(["BTB entries", &fe.btb_entries.to_string()]);
        shared.row(["RAS depth", &fe.ras_depth.to_string()]);
        shared.row(["redirect penalty", &format!("{} cycles", fe.redirect_penalty)]);
        shared.row([
            "L1 I/D",
            &format!(
                "{} KiB, {}-way, {} B lines",
                mem.l1d.size_bytes / 1024,
                mem.l1d.ways,
                mem.l1d.line_bytes
            ),
        ]);
        shared.row([
            "L2 (shared)",
            &format!("{} KiB, {}-way", mem.l2.size_bytes / 1024, mem.l2.ways),
        ]);
        shared.row([
            "L1 / L2 latency",
            &format!("{} / {} cycles", mem.l1_latency, mem.l2_latency),
        ]);
        shared.row(["L1D MSHRs", &mem.l1d_mshrs.to_string()]);
        shared.row(["DRAM base latency", &format!("{} cycles", mem.dram.base_cycles)]);
        shared.row(["DRAM banks", &mem.dram.banks.to_string()]);
        f.table("e1_shared", shared);

        f.note("The SST rows differ from in-order only by the checkpoint/DQ/");
        f.note("store-buffer columns — the paper's whole added cost. The OoO");
        f.note("rows carry the rename/ROB/issue-window/LSQ machinery SST");
        f.note("eliminates.");
        f
    }
    Experiment {
        id: "e1",
        family: "paper",
        title: "machine configurations (Table 1)",
        paper_note: "reconstructed configuration table: in-order / scout / EA / SST / OoO lineup",
        hidden: false,
        jobs,
        fold,
    }
}

pub(super) fn e2() -> Experiment {
    fn jobs(_env: &Env) -> Vec<JobSpec> {
        Workload::all_names()
            .iter()
            .map(|name| JobSpec::single(format!("io/{name}"), CoreModel::InOrder, name))
            .collect()
    }
    fn fold(env: &Env, ctx: &RunCtx) -> Fold {
        let mut f = Fold::default();
        let mut t = Table::new([
            "workload",
            "class",
            "insts",
            "loads%",
            "stores%",
            "branches%",
            "L1D MPKI",
            "L2 MPKI",
            "br-mispred%",
            "IPC(in-order)",
        ]);
        for name in Workload::all_names() {
            let r = ctx.run(&format!("io/{name}"));
            let share = |k: InstClass| r.mix_fraction(k) * 100.0;
            let preds = r.counter("cond_predictions").unwrap_or(0);
            let mispred = if preds == 0 {
                0.0
            } else {
                r.counter("cond_mispredictions").unwrap_or(0) as f64 * 100.0 / preds as f64
            };
            t.row([
                name.to_string(),
                class_of(env, name).to_string(),
                r.insts.to_string(),
                f2(share(InstClass::Load)),
                f2(share(InstClass::Store)),
                f2(share(InstClass::Branch) + share(InstClass::Jump)),
                f2(r.mem.l1d[0].mpki(r.insts)),
                f2(r.mem.l2.mpki(r.insts)),
                f2(mispred),
                f3(r.ipc()),
            ]);
        }
        f.table("e2_workloads", t);
        f.note("Expected regimes: oltp/erp/mcf/gups/chase/mlp8 land in the");
        f.note("tens of L2 MPKI (the paper's commercial regime); gzip/matmul");
        f.note("are cache-resident; gcc/web are branchy (mispredict > 5%).");
        f
    }
    Experiment {
        id: "e2",
        family: "paper",
        title: "workload characterization (Table 2)",
        paper_note: "commercial suite: high L2 MPKI + dependent loads; spec-fp: streaming; micro: MLP extremes",
        hidden: false,
        jobs,
        fold,
    }
}

const E3_MODELS: [super::ModelTok; 4] = [
    ("io", || CoreModel::InOrder),
    ("scout", || CoreModel::Scout),
    ("ea", || CoreModel::ExecuteAhead),
    ("sst", || CoreModel::Sst),
];

pub(super) fn e3() -> Experiment {
    fn jobs(_env: &Env) -> Vec<JobSpec> {
        Workload::all_names()
            .iter()
            .flat_map(|name| {
                E3_MODELS
                    .iter()
                    .map(move |(tok, model)| JobSpec::single(format!("{tok}/{name}"), model(), name))
            })
            .collect()
    }
    fn fold(env: &Env, ctx: &RunCtx) -> Fold {
        let mut f = Fold::default();
        let mut t = Table::new(["workload", "in-order IPC", "scout", "ea", "sst"]);
        let mut per_class: Vec<(&str, [Vec<f64>; 3])> = vec![
            ("commercial", Default::default()),
            ("spec-int", Default::default()),
            ("spec-fp", Default::default()),
            ("micro", Default::default()),
        ];
        for name in Workload::all_names() {
            let base_ipc = ctx.run(&format!("io/{name}")).measured_ipc();
            let mut speedups = [0.0f64; 3];
            for (i, tok) in ["scout", "ea", "sst"].into_iter().enumerate() {
                speedups[i] = ctx.run(&format!("{tok}/{name}")).measured_ipc() / base_ipc;
            }
            let class = class_of(env, name);
            for (label, accum) in per_class.iter_mut() {
                if *label == class {
                    for i in 0..3 {
                        accum[i].push(speedups[i]);
                    }
                }
            }
            t.row([
                name.to_string(),
                f3(base_ipc),
                format!("{}x", f2(speedups[0])),
                format!("{}x", f2(speedups[1])),
                format!("{}x", f2(speedups[2])),
            ]);
        }
        f.table("e3_speedup_vs_inorder", t);

        let mut g = Table::new(["suite", "scout", "ea", "sst"]);
        for (label, accum) in &per_class {
            g.row([
                label.to_string(),
                format!("{}x", f2(geomean(&accum[0]))),
                format!("{}x", f2(geomean(&accum[1]))),
                format!("{}x", f2(geomean(&accum[2]))),
            ]);
        }
        f.note("geometric means by suite:");
        f.table("e3_geomeans", g);
        f
    }
    Experiment {
        id: "e3",
        family: "paper",
        title: "speedup over in-order: scout / EA / SST (Figure A)",
        paper_note: "every mechanism >= 1.0x; ordering scout <= EA <= SST; biggest gains on the commercial suite",
        hidden: false,
        jobs,
        fold,
    }
}

const E4_MODELS: [super::ModelTok; 4] = [
    ("sst", || CoreModel::Sst),
    ("o32", || CoreModel::Ooo32),
    ("o64", || CoreModel::Ooo64),
    ("o128", || CoreModel::Ooo128),
];

pub(super) fn e4() -> Experiment {
    fn jobs(_env: &Env) -> Vec<JobSpec> {
        Workload::all_names()
            .iter()
            .flat_map(|name| {
                E4_MODELS
                    .iter()
                    .map(move |(tok, model)| JobSpec::single(format!("{tok}/{name}"), model(), name))
            })
            .collect()
    }
    fn fold(_env: &Env, ctx: &RunCtx) -> Fold {
        let mut f = Fold::default();
        let mut t = Table::new([
            "workload",
            "sst IPC",
            "ooo-32 IPC",
            "ooo-64 IPC",
            "ooo-128 IPC",
            "sst vs ooo-128",
        ]);
        let mut commercial: Vec<f64> = Vec::new();
        let mut all_vs_128: Vec<f64> = Vec::new();
        for name in Workload::all_names() {
            let ipc =
                |tok: &str| -> f64 { ctx.run(&format!("{tok}/{name}")).measured_ipc() };
            let (sst, o32, o64, o128) = (ipc("sst"), ipc("o32"), ipc("o64"), ipc("o128"));
            let ratio = sst / o128;
            if Workload::commercial_names().contains(name) {
                commercial.push(ratio);
            }
            all_vs_128.push(ratio);
            t.row([
                name.to_string(),
                f3(sst),
                f3(o32),
                f3(o64),
                f3(o128),
                pct(ratio),
            ]);
        }
        f.table("e4_vs_ooo", t);

        let headline = geomean(&commercial);
        f.note(format!(
            "HEADLINE — SST vs ooo-128, commercial-suite geomean: {}",
            pct(headline)
        ));
        f.note("paper: +18% vs \"larger and higher-powered out-of-order cores\"");

        let mut s = Table::new(["summary", "value"]);
        s.row(["commercial geomean (sst/ooo-128)", &pct(headline)]);
        s.row(["all-suite geomean", &pct(geomean(&all_vs_128))]);
        let mut all = all_vs_128;
        all.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        s.row([
            "min / max across workloads",
            &format!("{} / {}", pct(all[0]), pct(all[all.len() - 1])),
        ]);
        f.table("e4_headline", s);
        f
    }
    Experiment {
        id: "e4",
        family: "paper",
        title: "SST vs out-of-order (Figure B, the headline)",
        paper_note: "SST ~ +18% over the large OoO on the commercial suite (accept +10..30%); OoO wins on compute-bound kernels",
        hidden: false,
        jobs,
        fold,
    }
}
