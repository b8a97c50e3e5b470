//! E9–E12: the area proxy, CMP throughput scaling, exposed MLP, and the
//! speculation outcome breakdown.

use sst_sim::area::model_area;
use sst_sim::report::{f2, f3, Table};
use sst_sim::{geomean, CoreModel};
use sst_workloads::Workload;

use crate::job::JobSpec;
use crate::registry::{Experiment, Fold, RunCtx};
use crate::Env;

pub(super) fn e9() -> Experiment {
    fn jobs(_env: &Env) -> Vec<JobSpec> {
        let mut v = Vec::new();
        for model in CoreModel::lineup() {
            for name in Workload::commercial_names() {
                v.push(JobSpec::single(
                    format!("{}/{name}", model.label()),
                    model.clone(),
                    name,
                ));
            }
        }
        v
    }
    fn fold(_env: &Env, ctx: &RunCtx) -> Fold {
        let mut f = Fold::default();
        let mut t = Table::new([
            "model",
            "SRAM bits",
            "CAM bits",
            "weighted cost",
            "commercial IPC (geomean)",
            "IPC per Mcost",
        ]);
        for model in CoreModel::lineup() {
            let est = model_area(&model);
            let ipcs: Vec<f64> = Workload::commercial_names()
                .iter()
                .map(|name| {
                    ctx.run(&format!("{}/{name}", model.label())).measured_ipc()
                })
                .collect();
            let ipc = geomean(&ipcs);
            let cost = est.weighted_cost();
            t.row([
                model.label(),
                est.sram_bits.to_string(),
                est.cam_bits.to_string(),
                format!("{:.0}", cost),
                f3(ipc),
                f2(ipc / cost * 1.0e6),
            ]);
        }
        f.table("e9_area_proxy", t);
        f.note("The last column is the paper's thesis: the SST core's");
        f.note("performance-per-structure-cost dominates every OoO point.");
        f
    }
    Experiment {
        id: "e9",
        family: "paper",
        title: "area/power structure proxy (Table 3)",
        paper_note: "SST ~= in-order + DQ/STB/checkpoints; large OoO is several times costlier (CAM-heavy)",
        hidden: false,
        jobs,
        fold,
    }
}

const E10_CORE_COUNTS: [usize; 5] = [1, 2, 4, 8, 16];

fn e10_models() -> [CoreModel; 2] {
    [CoreModel::Sst, CoreModel::Ooo64]
}

pub(super) fn e10() -> Experiment {
    fn jobs(_env: &Env) -> Vec<JobSpec> {
        let mut v = Vec::new();
        for model in e10_models() {
            for n in E10_CORE_COUNTS {
                v.push(JobSpec::cmp(
                    format!("{}/x{n}", model.label()),
                    model.clone(),
                    "erp",
                    n,
                ));
            }
        }
        v
    }
    fn fold(_env: &Env, ctx: &RunCtx) -> Fold {
        let mut f = Fold::default();
        for model in e10_models() {
            let cost = model_area(&model).weighted_cost();
            let mut t = Table::new([
                "cores",
                "throughput IPC",
                "scaling",
                "mean core IPC",
                "DRAM reads",
                "IPC per Mcost (chip)",
            ]);
            let mut base = None;
            for n in E10_CORE_COUNTS {
                let r = ctx.chip(&format!("{}/x{n}", model.label()));
                let tp = r.throughput_ipc();
                let b = *base.get_or_insert(tp);
                t.row([
                    n.to_string(),
                    f3(tp),
                    format!("{}x", f2(tp / b)),
                    f3(r.mean_core_ipc()),
                    r.mem.dram_reads.to_string(),
                    f2(tp / (cost * n as f64) * 1.0e6),
                ]);
            }
            f.note(format!("chip of {} cores:", model.label()));
            f.table(format!("e10_cmp_{}", model.label()), t);
        }
        f
    }
    Experiment {
        id: "e10",
        family: "paper",
        title: "CMP throughput scaling (Figure G)",
        paper_note: "near-linear to ~4-8 cores, then DRAM/L2 contention; SST chip leads per-cost at every size",
        hidden: false,
        jobs,
        fold,
    }
}

const E11_WORKLOADS: [&str; 5] = ["oltp", "erp", "gups", "mcf", "mlp8"];
const E11_MODELS: [super::ModelTok; 5] = [
    ("io", || CoreModel::InOrder),
    ("scout", || CoreModel::Scout),
    ("ea", || CoreModel::ExecuteAhead),
    ("sst", || CoreModel::Sst),
    ("o128", || CoreModel::Ooo128),
];

pub(super) fn e11() -> Experiment {
    fn jobs(_env: &Env) -> Vec<JobSpec> {
        let mut v = Vec::new();
        for name in E11_WORKLOADS {
            for (tok, model) in E11_MODELS {
                v.push(JobSpec::single(format!("{tok}/{name}"), model(), name));
            }
        }
        v
    }
    fn fold(_env: &Env, ctx: &RunCtx) -> Fold {
        let mut f = Fold::default();
        let mut t = Table::new(["workload", "in-order", "scout", "ea", "sst", "ooo-128"]);
        for name in E11_WORKLOADS {
            let mut cells = vec![name.to_string()];
            for (tok, _) in E11_MODELS {
                let r = ctx.run(&format!("{tok}/{name}"));
                // Whole-run cycles: the warm-up share is identical across
                // models and EA-style cores can have degenerate
                // post-warm-up windows (end-of-run commit bursts).
                let mpkc = r.mem.dram_reads as f64 * 1000.0 / r.cycles.max(1) as f64;
                cells.push(f2(mpkc));
            }
            t.row(cells);
        }
        f.note("DRAM reads per kilocycle (same total work => higher = more overlap):");
        f.table("e11_mlp", t);

        let mut s = Table::new([
            "workload",
            "deferred",
            "overlapped misses",
            "redeferred",
            "defer rate",
        ]);
        for name in E11_WORKLOADS {
            let r = ctx.run(&format!("sst/{name}"));
            let issued =
                r.counter("ahead_issued").unwrap_or(0) + r.counter("replay_issued").unwrap_or(0);
            let defer_rate = if issued == 0 {
                0.0
            } else {
                r.counter("deferred").unwrap_or(0) as f64 / issued as f64
            };
            s.row([
                name.to_string(),
                r.counter("deferred").unwrap_or(0).to_string(),
                r.counter("overlapped_misses").unwrap_or(0).to_string(),
                r.counter("redeferred").unwrap_or(0).to_string(),
                f3(defer_rate),
            ]);
        }
        f.note("SST speculation anatomy:");
        f.table("e11_sst_anatomy", s);
        f
    }
    Experiment {
        id: "e11",
        family: "paper",
        title: "exposed MLP by core type (Figure H)",
        paper_note: "SST >= EA >= scout >= in-order miss overlap everywhere except MLP-1 chases",
        hidden: false,
        jobs,
        fold,
    }
}

pub(super) fn e12() -> Experiment {
    fn jobs(_env: &Env) -> Vec<JobSpec> {
        Workload::all_names()
            .iter()
            .map(|name| JobSpec::single(format!("sst/{name}"), CoreModel::Sst, name))
            .collect()
    }
    fn fold(_env: &Env, ctx: &RunCtx) -> Fold {
        let mut f = Fold::default();
        let mut t = Table::new([
            "workload",
            "episodes",
            "epochs committed",
            "branch fails",
            "fail %",
            "dq-full %cyc",
            "stb-full %cyc",
        ]);
        for name in Workload::all_names() {
            let r = ctx.run(&format!("sst/{name}"));
            let committed = r.counter("epochs_committed").unwrap_or(0);
            let fails = r.counter("fail_branch").unwrap_or(0);
            let ends = committed + fails;
            let fail_pct = if ends == 0 {
                0.0
            } else {
                fails as f64 * 100.0 / ends as f64
            };
            let cyc = r.cycles.max(1) as f64;
            t.row([
                name.to_string(),
                r.counter("episodes").unwrap_or(0).to_string(),
                committed.to_string(),
                fails.to_string(),
                f2(fail_pct),
                f2(r.counter("stall_dq_full").unwrap_or(0) as f64 * 100.0 / cyc),
                f2(r.counter("stall_stb_full").unwrap_or(0) as f64 * 100.0 / cyc),
            ]);
        }
        f.table("e12_failures", t);
        f
    }
    Experiment {
        id: "e12",
        family: "paper",
        title: "speculation outcome breakdown (Figure I)",
        paper_note: "commits dominate; deferred-branch failures are a small minority; stalls concentrated on store-heavy code",
        hidden: false,
        jobs,
        fold,
    }
}
