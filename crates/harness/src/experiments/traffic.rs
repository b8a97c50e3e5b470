//! E14: open-loop service traffic over the CMP — throughput, tail
//! latency, and shed rate versus offered load, per core model, with
//! saturation-knee detection.
//!
//! The paper's headline workloads are *services*; this family measures
//! what a service operator would: at each offered load (in permille of
//! the chip's nominal capacity of one instruction per core-cycle),
//! Poisson-arriving OLTP requests queue through a bounded admission
//! queue onto per-core lanes, and we report delivered throughput,
//! p50/p99/p99.9 arrival-to-completion latency, and the shed rate. The
//! *knee* is the highest offered load a model still delivers at least
//! 90% of.

use sst_sim::report::{f2, Table};
use sst_sim::CoreModel;
use sst_traffic::{Policy, TrafficResult, TrafficSpec};
use sst_workloads::Scale;

use crate::job::JobSpec;
use crate::registry::{Experiment, Fold, RunCtx};
use crate::Env;

const E14_WORKLOAD: &str = "oltp";
const E14_MODELS: [super::ModelTok; 5] = [
    ("io", || CoreModel::InOrder),
    ("scout", || CoreModel::Scout),
    ("ea", || CoreModel::ExecuteAhead),
    ("sst", || CoreModel::Sst),
    ("o128", || CoreModel::Ooo128),
];
/// Offered-load sweep, permille of nominal chip capacity.
const E14_LOADS: [u32; 7] = [50, 100, 200, 350, 500, 750, 1000];
/// Delivered/offered threshold (permille) defining the saturation knee.
const KNEE_PERMILLE: u64 = 900;

fn spec_for(env: &Env, model: CoreModel, load_permille: u32) -> TrafficSpec {
    let (cores, requests, warmup, txns_per_request) = match env.scale {
        Scale::Smoke => (2, 96, 16, 4),
        Scale::Full => (8, 1_200, 64, 8),
    };
    TrafficSpec {
        model,
        workload: E14_WORKLOAD.into(),
        cores,
        load_permille,
        txns_per_request,
        requests,
        warmup,
        admission_cap: 64,
        lane_cap: 8,
        quantum: 256,
        policy: Policy::LeastLoaded,
    }
}

/// Delivered throughput in permille of offered (100% = kept up).
fn delivered_vs_offered_permille(r: &TrafficResult) -> u64 {
    if r.offered == 0 {
        return 0;
    }
    r.completed * 1000 / r.offered
}

pub(super) fn e14() -> Experiment {
    fn jobs(env: &Env) -> Vec<JobSpec> {
        let mut v = Vec::new();
        for (tok, model) in E14_MODELS {
            for load in E14_LOADS {
                v.push(JobSpec::traffic(
                    format!("{tok}/l{load}"),
                    spec_for(env, model(), load),
                ));
            }
        }
        v
    }
    fn fold(env: &Env, ctx: &RunCtx) -> Fold {
        let mut f = Fold::default();
        let insts = spec_for(env, CoreModel::InOrder, 100).request_insts();
        for (tok, _) in E14_MODELS {
            let mut t = Table::new([
                "offered_permille",
                "offered_reqs",
                "completed",
                "shed",
                "shed_pct",
                "delivered_permille",
                "p50",
                "p99",
                "p999",
            ]);
            for load in E14_LOADS {
                let r = ctx.traffic(&format!("{tok}/l{load}"));
                let p = |q: u64| {
                    r.hist
                        .percentile_permille(q)
                        .map_or("-".to_string(), |v| v.to_string())
                };
                t.row([
                    load.to_string(),
                    r.offered.to_string(),
                    r.completed.to_string(),
                    r.shed.to_string(),
                    f2(r.shed as f64 * 100.0 / r.offered.max(1) as f64),
                    r.delivered_permille(insts).to_string(),
                    p(500),
                    p(990),
                    p(999),
                ]);
            }
            f.table(format!("e14_load_{tok}"), t);
        }

        // Knee summary: per model, the highest offered load still
        // delivered at >= 90%, with its p99 there.
        let mut knee = Table::new(["model", "knee_permille", "p99_at_knee", "shed_at_max_load"]);
        for (tok, _) in E14_MODELS {
            let mut knee_load = 0u32;
            for load in E14_LOADS {
                let r = ctx.traffic(&format!("{tok}/l{load}"));
                if delivered_vs_offered_permille(r) >= KNEE_PERMILLE {
                    knee_load = load;
                }
            }
            let p99_at_knee = if knee_load == 0 {
                "-".to_string()
            } else {
                let r = ctx.traffic(&format!("{tok}/l{knee_load}"));
                r.hist
                    .percentile_permille(990)
                    .map_or("-".to_string(), |v| v.to_string())
            };
            let max = ctx.traffic(&format!("{tok}/l{}", E14_LOADS[E14_LOADS.len() - 1]));
            knee.row([
                tok.to_string(),
                knee_load.to_string(),
                p99_at_knee,
                max.shed.to_string(),
            ]);
        }
        f.note(format!(
            "knee = highest offered load (permille of nominal IPC-1-per-core capacity) \
             with completed/offered >= {KNEE_PERMILLE} permille"
        ));
        f.table("e14_knee", knee);
        f
    }
    Experiment {
        id: "e14",
        family: "traffic",
        title: "open-loop service traffic: tail latency & knee vs offered load",
        paper_note: "miss-hiding models sustain higher offered load before the p99/knee collapse on the commercial (OLTP) mix",
        hidden: false,
        jobs,
        fold,
    }
}
