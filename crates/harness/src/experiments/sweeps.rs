//! E5–E8: the sensitivity sweeps — DRAM latency, deferred-queue size,
//! checkpoint count, and store-buffer size.

use sst_core::SstConfig;
use sst_mem::MemConfig;
use sst_sim::report::{f2, f3, Table};
use sst_sim::CoreModel;

use crate::job::JobSpec;
use crate::registry::{Experiment, Fold, RunCtx};
use crate::Env;

const E5_LATENCIES: [u64; 6] = [100, 200, 300, 450, 700, 1000];
const E5_WORKLOADS: [&str; 3] = ["oltp", "erp", "mcf"];
const E5_MODELS: [super::ModelTok; 5] = [
    ("io", || CoreModel::InOrder),
    ("scout", || CoreModel::Scout),
    ("ea", || CoreModel::ExecuteAhead),
    ("sst", || CoreModel::Sst),
    ("o128", || CoreModel::Ooo128),
];

pub(super) fn e5() -> Experiment {
    fn jobs(_env: &Env) -> Vec<JobSpec> {
        let mut v = Vec::new();
        for name in E5_WORKLOADS {
            for base in E5_LATENCIES {
                let mut cfg = MemConfig::default();
                cfg.dram.base_cycles = base;
                for (tok, model) in E5_MODELS {
                    v.push(JobSpec::single_mem(
                        format!("{tok}/{name}/lat{base}"),
                        model(),
                        name,
                        cfg.clone(),
                    ));
                }
            }
        }
        v
    }
    fn fold(_env: &Env, ctx: &RunCtx) -> Fold {
        let mut f = Fold::default();
        for name in E5_WORKLOADS {
            let mut t = Table::new([
                "dram cycles",
                "in-order",
                "scout",
                "ea",
                "sst",
                "ooo-128",
                "sst/in-order",
                "sst/ooo-128",
            ]);
            for base in E5_LATENCIES {
                let ipc: Vec<f64> = E5_MODELS
                    .iter()
                    .map(|(tok, _)| ctx.run(&format!("{tok}/{name}/lat{base}")).measured_ipc())
                    .collect();
                t.row([
                    base.to_string(),
                    f3(ipc[0]),
                    f3(ipc[1]),
                    f3(ipc[2]),
                    f3(ipc[3]),
                    f3(ipc[4]),
                    format!("{}x", f2(ipc[3] / ipc[0])),
                    format!("{}x", f2(ipc[3] / ipc[4])),
                ]);
            }
            f.note(format!("workload: {name}"));
            f.table(format!("e5_latency_{name}"), t);
        }
        f.note("Shape check: the sst/in-order column grows monotonically on");
        f.note("oltp and erp; on mcf (MLP 1) every mechanism degrades together.");
        f
    }
    Experiment {
        id: "e5",
        family: "paper",
        title: "IPC vs DRAM latency (Figure C)",
        paper_note: "SST's advantage over in-order and ooo-128 widens with latency",
        hidden: false,
        jobs,
        fold,
    }
}

const E6_SIZES: [usize; 7] = [8, 16, 32, 64, 128, 256, 512];
const E6_WORKLOADS: [&str; 3] = ["oltp", "erp", "gups"];

pub(super) fn e6() -> Experiment {
    fn jobs(_env: &Env) -> Vec<JobSpec> {
        let mut v = Vec::new();
        for name in E6_WORKLOADS {
            for n in E6_SIZES {
                let cfg = SstConfig {
                    dq_entries: n,
                    ..SstConfig::sst()
                };
                v.push(JobSpec::single(
                    format!("dq{n}/{name}"),
                    CoreModel::CustomSst(cfg),
                    name,
                ));
            }
        }
        v
    }
    fn fold(_env: &Env, ctx: &RunCtx) -> Fold {
        let mut f = Fold::default();
        for name in E6_WORKLOADS {
            let mut t = Table::new([
                "dq entries",
                "IPC",
                "dq-full stall cycles",
                "dq high water",
                "deferred insts",
            ]);
            for n in E6_SIZES {
                let r = ctx.run(&format!("dq{n}/{name}"));
                t.row([
                    n.to_string(),
                    f3(r.ipc()),
                    r.counter("stall_dq_full").unwrap_or(0).to_string(),
                    r.counter("dq_high_water").unwrap_or(0).to_string(),
                    r.counter("deferred").unwrap_or(0).to_string(),
                ]);
            }
            f.note(format!("workload: {name}"));
            f.table(format!("e6_dq_{name}"), t);
        }
        f
    }
    Experiment {
        id: "e6",
        family: "paper",
        title: "IPC vs deferred-queue size (Figure D)",
        paper_note:
            "small DQs throttle the ahead thread (dq-full stalls); returns saturate by ~128",
        hidden: false,
        jobs,
        fold,
    }
}

const E7_CHECKPOINTS: [usize; 5] = [1, 2, 3, 4, 8];
const E7_WORKLOADS: [&str; 3] = ["oltp", "erp", "web"];

pub(super) fn e7() -> Experiment {
    fn jobs(_env: &Env) -> Vec<JobSpec> {
        let mut v = Vec::new();
        for name in E7_WORKLOADS {
            for n in E7_CHECKPOINTS {
                let cfg = SstConfig {
                    checkpoints: n,
                    ..SstConfig::sst()
                };
                v.push(JobSpec::single(
                    format!("ckpt{n}/{name}"),
                    CoreModel::CustomSst(cfg),
                    name,
                ));
            }
        }
        v
    }
    fn fold(_env: &Env, ctx: &RunCtx) -> Fold {
        let mut f = Fold::default();
        for name in E7_WORKLOADS {
            let mut t = Table::new([
                "checkpoints",
                "IPC",
                "vs 1 ckpt",
                "epochs committed",
                "ea-suspend cycles",
            ]);
            let mut base = None;
            for n in E7_CHECKPOINTS {
                let r = ctx.run(&format!("ckpt{n}/{name}"));
                let ipc = r.ipc();
                let b = *base.get_or_insert(ipc);
                t.row([
                    n.to_string(),
                    f3(ipc),
                    format!("{}x", f2(ipc / b)),
                    r.counter("epochs_committed").unwrap_or(0).to_string(),
                    r.counter("stall_ea_replay").unwrap_or(0).to_string(),
                ]);
            }
            f.note(format!("workload: {name}"));
            f.table(format!("e7_ckpt_{name}"), t);
        }
        f
    }
    Experiment {
        id: "e7",
        family: "paper",
        title: "IPC vs checkpoint count (Figure E)",
        paper_note: "1 -> 2 checkpoints (EA -> SST) helps; past ~4 the returns vanish",
        hidden: false,
        jobs,
        fold,
    }
}

const E8_SIZES: [usize; 6] = [4, 8, 16, 32, 64, 128];
const E8_WORKLOADS: [&str; 3] = ["gups", "oltp", "stream"];

pub(super) fn e8() -> Experiment {
    fn jobs(_env: &Env) -> Vec<JobSpec> {
        let mut v = Vec::new();
        for name in E8_WORKLOADS {
            for n in E8_SIZES {
                let cfg = SstConfig {
                    stb_entries: n,
                    ..SstConfig::sst()
                };
                v.push(JobSpec::single(
                    format!("stb{n}/{name}"),
                    CoreModel::CustomSst(cfg),
                    name,
                ));
            }
        }
        v
    }
    fn fold(_env: &Env, ctx: &RunCtx) -> Fold {
        let mut f = Fold::default();
        for name in E8_WORKLOADS {
            let mut t = Table::new([
                "stb entries",
                "IPC",
                "stb-full stall cycles",
                "stb high water",
                "forwards",
            ]);
            for n in E8_SIZES {
                let r = ctx.run(&format!("stb{n}/{name}"));
                t.row([
                    n.to_string(),
                    f3(r.ipc()),
                    r.counter("stall_stb_full").unwrap_or(0).to_string(),
                    r.counter("stb_high_water").unwrap_or(0).to_string(),
                    r.counter("stb_forwards").unwrap_or(0).to_string(),
                ]);
            }
            f.note(format!("workload: {name}"));
            f.table(format!("e8_stb_{name}"), t);
        }
        f
    }
    Experiment {
        id: "e8",
        family: "paper",
        title: "IPC vs store-buffer size (Figure F)",
        paper_note: "store-heavy workloads stall hard below ~16 entries; saturation by ~64",
        hidden: false,
        jobs,
        fold,
    }
}
