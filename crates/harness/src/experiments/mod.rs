//! The experiment definitions: each of E1–E14 and A1–A4 as a
//! (jobs, fold) pair, ported from the original standalone binaries.

mod ablations;
mod core;
mod security;
mod sweeps;
mod system;
mod traffic;

use sst_sim::CoreModel;

use crate::job::{JobKind, JobSpec};
use crate::registry::{Experiment, Fold, RunCtx};
use crate::Env;

/// One model of an experiment's lineup: its job-name token and its builder.
type ModelTok = (&'static str, fn() -> CoreModel);

/// Every experiment, in publication order, plus the hidden `xfail`
/// fault-injection experiment.
pub fn all() -> Vec<Experiment> {
    vec![
        core::e1(),
        core::e2(),
        core::e3(),
        core::e4(),
        sweeps::e5(),
        sweeps::e6(),
        sweeps::e7(),
        sweeps::e8(),
        system::e9(),
        system::e10(),
        system::e11(),
        system::e12(),
        security::e13(),
        traffic::e14(),
        ablations::a1(),
        ablations::a2(),
        ablations::a3(),
        ablations::a4(),
        xfail(),
        xfold(),
    ]
}

/// The suite class label of a workload (for per-class geomeans).
pub(crate) fn class_of(env: &Env, name: &str) -> &'static str {
    sst_workloads::Workload::by_name(name, env.scale, env.seed)
        .unwrap_or_else(|| panic!("unknown workload {name:?}"))
        .class
        .label()
}

/// A deliberately failing experiment for exercising fault isolation:
/// one job panics, one succeeds. Hidden from `sst-run all`; addressable
/// as `sst-run xfail`.
fn xfail() -> Experiment {
    fn jobs(_env: &Env) -> Vec<JobSpec> {
        vec![
            JobSpec {
                name: "boom".into(),
                kind: JobKind::Panic {
                    message: "injected failure (xfail experiment)".into(),
                },
            },
            JobSpec::single("ok/gzip", sst_sim::CoreModel::InOrder, "gzip"),
        ]
    }
    fn fold(_env: &Env, _ctx: &RunCtx) -> Fold {
        let mut f = Fold::default();
        f.note("xfail fold ran — this should be impossible (the boom job must fail)".to_string());
        f
    }
    Experiment {
        id: "xfail",
        family: "internal",
        title: "fault-injection check (always fails by design)",
        paper_note: "harness self-test: the panicking job lands in the manifest, the rest proceed",
        hidden: true,
        jobs,
        fold,
    }
}

/// A deliberately failing experiment whose *jobs* all succeed but whose
/// *fold* panics — exercising the scheduler's fold isolation. Hidden
/// from `sst-run all`; addressable as `sst-run xfold`.
fn xfold() -> Experiment {
    fn jobs(_env: &Env) -> Vec<JobSpec> {
        vec![JobSpec::single("ok/gzip", sst_sim::CoreModel::InOrder, "gzip")]
    }
    fn fold(_env: &Env, _ctx: &RunCtx) -> Fold {
        panic!("injected failure (xfold experiment)");
    }
    Experiment {
        id: "xfold",
        family: "internal",
        title: "fold fault-injection check (always fails by design)",
        paper_note: "harness self-test: a panicking fold is recorded and cannot look clean",
        hidden: true,
        jobs,
        fold,
    }
}
