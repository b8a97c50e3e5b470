//! # sst-harness
//!
//! Parallel, cached, fault-isolated orchestration for the study's
//! experiments (E1–E14, A1–A4).
//!
//! Each experiment declares a list of **jobs** — independent simulation
//! units (one `(model, workload, memory-config)` run, or one CMP
//! throughput run) — plus a **fold** step that assembles the published
//! tables from the job results. The scheduler executes jobs on a worker
//! pool (`--jobs N`, default: available parallelism), isolates each job
//! behind `catch_unwind` and a max-cycle budget, serves repeat runs from a
//! content-addressed cache under `results/cache/`, and reassembles tables
//! deterministically regardless of thread count or completion order.
//!
//! Outputs, per experiment: the markdown tables on stdout, one CSV per
//! table under `results/`, and a machine-readable `results/<id>.json`
//! with the raw per-job numbers (IPC, defer rates, stall breakdowns,
//! memory-hierarchy counters). A whole-run `results/manifest.json`
//! records job status, durations, cache hits, and structured failure
//! records — a panicking or wedged job never takes down the rest of the
//! run.
//!
//! Environment knobs:
//!
//! * `SST_SCALE=smoke|full` — workload scale (default `full`).
//! * `SST_SEED=<u64>` — data-generation seed (default 12345).
//! * `SST_RESULTS=<dir>` — where `results/` is created (default CWD).
//! * `SST_MAX_CYCLES=<u64>` — per-job cycle budget (default 2e10).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod cli;
mod experiments;
pub mod job;
pub mod json;
pub mod registry;
pub mod sched;
pub mod trace;

pub use cli::cli_main;
pub use job::{JobKind, JobOutput, JobSpec};
pub use registry::{Experiment, Fold, FoldItem, RunCtx};
pub use sched::{FailureRecord, RunConfig, RunSummary};

use std::path::PathBuf;

use sst_workloads::Scale;

/// A generous per-job cycle ceiling (simulations are deterministic; this
/// only catches model wedges).
pub const DEFAULT_MAX_CYCLES: u64 = 20_000_000_000;

/// The experiment environment: everything that parameterizes job
/// *results* (and therefore the cache key). Output locations and thread
/// counts live in [`RunConfig`] instead — they must never affect results.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Env {
    /// Workload scale.
    pub scale: Scale,
    /// Data-generation seed.
    pub seed: u64,
    /// Per-job cycle budget.
    pub max_cycles: u64,
}

impl Env {
    /// Reads `SST_SCALE` / `SST_SEED` / `SST_MAX_CYCLES`; unset takes the
    /// documented default, a malformed value is an `Err` naming it.
    pub fn from_os() -> Result<Env, String> {
        let var = |name: &str| match std::env::var(name) {
            Ok(v) => Ok(Some(v)),
            Err(std::env::VarError::NotPresent) => Ok(None),
            Err(std::env::VarError::NotUnicode(v)) => Err(format!("{name}={v:?} is not UTF-8")),
        };
        let scale = var("SST_SCALE")?;
        let seed = var("SST_SEED")?;
        let max_cycles = var("SST_MAX_CYCLES")?;
        Env::parse(scale.as_deref(), seed.as_deref(), max_cycles.as_deref())
    }

    /// Builds an `Env` from the values of `SST_SCALE`, `SST_SEED` and
    /// `SST_MAX_CYCLES` (`None` = unset, which takes the default). A set
    /// value must be `smoke`/`full` or a `u64`; anything else is an error
    /// naming the variable and the value, never a silent default.
    fn parse(
        scale: Option<&str>,
        seed: Option<&str>,
        max_cycles: Option<&str>,
    ) -> Result<Env, String> {
        let d = Env::default();
        let int = |name: &str, v: Option<&str>, default: u64| match v {
            None => Ok(default),
            Some(s) => s
                .parse()
                .map_err(|_| format!("{name}={s:?} is not an unsigned 64-bit integer")),
        };
        Ok(Env {
            scale: match scale {
                None => d.scale,
                Some("smoke") => Scale::Smoke,
                Some("full") => Scale::Full,
                Some(s) => return Err(format!("SST_SCALE={s:?} is not \"smoke\" or \"full\"")),
            },
            seed: int("SST_SEED", seed, d.seed)?,
            max_cycles: int("SST_MAX_CYCLES", max_cycles, d.max_cycles)?,
        })
    }

    /// The scale's token as it appears in cache keys ("smoke"/"full").
    pub fn scale_token(&self) -> &'static str {
        match self.scale {
            Scale::Smoke => "smoke",
            Scale::Full => "full",
        }
    }
}

impl Default for Env {
    fn default() -> Env {
        Env {
            scale: Scale::Full,
            seed: 12345,
            max_cycles: DEFAULT_MAX_CYCLES,
        }
    }
}

/// Output directory root from `SST_RESULTS` (default CWD). `results/` is
/// created beneath it.
pub fn out_dir_from_os() -> PathBuf {
    std::env::var("SST_RESULTS")
        .map(PathBuf::from)
        .unwrap_or_else(|_| PathBuf::from("."))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_env_is_full_scale() {
        let e = Env::default();
        assert_eq!(e.scale, Scale::Full);
        assert_eq!(e.seed, 12345);
        assert_eq!(e.scale_token(), "full");
    }

    #[test]
    fn unset_variables_take_the_defaults() {
        assert_eq!(Env::parse(None, None, None), Ok(Env::default()));
    }

    #[test]
    fn valid_values_are_read() {
        let e = Env::parse(Some("smoke"), Some("7"), Some("50")).unwrap();
        assert_eq!((e.scale, e.seed, e.max_cycles), (Scale::Smoke, 7, 50));
        assert_eq!(
            Env::parse(Some("full"), None, None).unwrap().scale,
            Scale::Full
        );
    }

    #[test]
    fn malformed_values_are_rejected_by_name() {
        for (args, name, value) in [
            ((Some("smok"), None, None), "SST_SCALE", "smok"),
            ((Some("Smoke"), None, None), "SST_SCALE", "Smoke"),
            ((Some(""), None, None), "SST_SCALE", ""),
            ((None, Some("x12"), None), "SST_SEED", "x12"),
            ((None, Some("-1"), None), "SST_SEED", "-1"),
            ((None, None, Some("2e10")), "SST_MAX_CYCLES", "2e10"),
        ] {
            let err = Env::parse(args.0, args.1, args.2).unwrap_err();
            assert!(
                err.contains(name) && err.contains(&format!("{value:?}")),
                "{err}"
            );
        }
    }
}
