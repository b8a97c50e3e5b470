//! E13: "does SST leak?" — speculation-taint measurements over the
//! Spectre-v1-shaped gadget kernels.
//!
//! Every state element written between a checkpoint and its rollback is
//! tainted; the rollback sweep probes what survives (cache lines filled or
//! in flight, predictor updates, prefetcher trainings) and the
//! `leak_footprint` counter totals the distinct lines that squashed
//! speculation left behind and no architectural access ever legitimized —
//! the surviving covert-channel surface.
//!
//! The expected shape, and why it is interesting: the paper's pitch is
//! that SST reaches OoO-class performance with in-order-class hardware.
//! This experiment asks whether it also inherits OoO-class *speculative
//! side channels*. It does — and the deeper the design speculates, the
//! bigger the surface: scout (rolls back at cause-ready, re-executing the
//! same window twice) leaves roughly half the footprint of EA/SST, whose
//! single continuous window covers two memory round trips. The `g_chase`
//! contrast gadget shows the one place deferral *helps*: a transmitter
//! whose address depends on a not-there value never issues at all, while
//! an OoO core's wrong-path walk still leaks it.

use sst_sim::report::Table;
use sst_sim::CoreModel;
use sst_workloads::gadget_names;

use crate::job::JobSpec;
use crate::registry::{Experiment, Fold, RunCtx};
use crate::Env;

/// The model lineup: the in-order baseline and every speculating design,
/// each run with taint enabled. In-order never opens a checkpoint, so its
/// all-zero row is measured, not assumed.
const MODELS: [CoreModel; 5] = [
    CoreModel::InOrder,
    CoreModel::Scout,
    CoreModel::ExecuteAhead,
    CoreModel::Sst,
    CoreModel::Ooo32,
];

pub(super) fn e13() -> Experiment {
    fn jobs(_env: &Env) -> Vec<JobSpec> {
        let mut v = Vec::new();
        for gadget in gadget_names() {
            for model in MODELS {
                v.push(JobSpec::leakage(
                    format!("{}/{gadget}", model.label()),
                    model,
                    gadget,
                ));
            }
        }
        v
    }
    fn fold(_env: &Env, ctx: &RunCtx) -> Fold {
        let mut f = Fold::default();
        let mut t = Table::new([
            "gadget",
            "model",
            "rollbacks",
            "lines swept",
            "resident",
            "in flight",
            "pred updates",
            "pf trainings",
            "NT",
            "DQ",
            "STB",
            "leak footprint",
        ]);
        let leak = |name: &str, key: &str| ctx.run(name).counter(key).unwrap_or(0);
        for gadget in gadget_names() {
            for model in MODELS {
                let label = model.label();
                let name = format!("{label}/{gadget}");
                t.row([
                    gadget.to_string(),
                    label,
                    leak(&name, "leak_rollbacks").to_string(),
                    leak(&name, "leak_lines_swept").to_string(),
                    leak(&name, "leak_lines_resident").to_string(),
                    leak(&name, "leak_lines_in_flight").to_string(),
                    leak(&name, "leak_predictor_updates").to_string(),
                    leak(&name, "leak_prefetch_trainings").to_string(),
                    leak(&name, "leak_nt_squashed").to_string(),
                    leak(&name, "leak_dq_squashed").to_string(),
                    leak(&name, "leak_stb_squashed").to_string(),
                    leak(&name, "leak_footprint").to_string(),
                ]);
            }
        }
        f.table("e13_leakage", t);

        // Shape checks the paper-level claims hang on. Stated as explicit
        // pass/fail notes so a regression is visible in the report (and
        // greppable by CI) without hiding the tables behind a panic.
        let io_total: u64 = gadget_names()
            .iter()
            .flat_map(|g| {
                let name = format!("in-order/{g}");
                ctx.run(&name)
                    .counters
                    .iter()
                    .filter(|(n, _)| n.starts_with("leak_"))
                    .map(|(_, v)| *v)
                    .collect::<Vec<_>>()
            })
            .sum();
        f.note(format!(
            "check: in-order leaks nothing on any gadget — {}",
            if io_total == 0 { "ok" } else { "VIOLATION" }
        ));
        let scout = leak("scout/g_bcb", "leak_footprint");
        let ea = leak("ea/g_bcb", "leak_footprint");
        let sst = leak("sst/g_bcb", "leak_footprint");
        f.note(format!(
            "check: deeper speculation leaves a larger surface on g_bcb \
             (scout {scout} < ea {ea}, scout {scout} < sst {sst}) — {}",
            if ea > scout && sst > scout {
                "ok"
            } else {
                "VIOLATION"
            }
        ));
        let chase_deferral: u64 = ["scout", "ea", "sst"]
            .iter()
            .map(|m| leak(&format!("{m}/g_chase"), "leak_footprint"))
            .sum();
        let chase_ooo = leak("ooo-32/g_chase", "leak_footprint");
        f.note(format!(
            "check: NT deferral blocks the g_chase transmitter that OoO leaks \
             (deferral designs {chase_deferral}, ooo {chase_ooo}) — {}",
            if chase_deferral == 0 && chase_ooo > 0 {
                "ok"
            } else {
                "VIOLATION"
            }
        ));
        f.note("Footprint = distinct lines filled (or still in flight) by".to_string());
        f.note("squashed speculation and never afterwards demanded by the".to_string());
        f.note("architectural path: what a Flush+Reload attacker can read.".to_string());
        f
    }
    Experiment {
        id: "e13",
        family: "paper",
        title: "speculative leakage: taint-swept rollback residue on Spectre gadgets",
        paper_note: "not in the paper — measures the side-channel surface the SST pipeline's \
                     deep speculation implies; scout ~ half of EA/SST, in-order zero",
        hidden: false,
        jobs,
        fold,
    }
}
