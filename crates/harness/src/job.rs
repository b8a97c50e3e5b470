//! Job specifications: the unit of scheduled, cached, fault-isolated
//! work. A job is pure — its output is fully determined by its spec plus
//! the [`Env`] — which is what makes content-addressed caching sound.

use sst_mem::MemConfig;
use sst_prng::fnv1a;
use sst_sim::{CmpResult, CmpSystem, CoreModel, RunResult, System};
use sst_traffic::{TrafficResult, TrafficSpec};
use sst_workloads::Workload;

use crate::Env;

/// What a job simulates.
#[derive(Clone, Debug)]
pub enum JobKind {
    /// One `(model, workload)` run on a private memory hierarchy.
    Single {
        /// Core model (custom configurations carry their full config).
        model: CoreModel,
        /// Workload name (`Workload::by_name`).
        workload: String,
        /// Memory hierarchy configuration.
        mem: MemConfig,
    },
    /// An `n`-core CMP throughput run (shared L2 + DRAM channel).
    Cmp {
        /// Core model for every core.
        model: CoreModel,
        /// Workload name, run homogeneously on all cores.
        workload: String,
        /// Core count.
        cores: usize,
        /// Memory hierarchy configuration.
        mem: MemConfig,
    },
    /// An open-loop traffic point: Poisson arrivals of server-kernel
    /// request slices over the CMP, with queueing and tail-latency
    /// accounting (experiment family E14).
    Traffic(TrafficSpec),
    /// One `(model, workload)` run with speculation taint enabled: the
    /// result is a [`RunResult`] whose counters additionally carry the
    /// eleven `leak_`-prefixed [`sst_obs::LeakageSummary`] totals
    /// (experiment E13). An in-order core reports them all zero.
    Leakage {
        /// Core model.
        model: CoreModel,
        /// Workload name (`Workload::by_name`, usually a gadget).
        workload: String,
        /// Memory hierarchy configuration.
        mem: MemConfig,
    },
    /// Panics immediately — exists to exercise the scheduler's fault
    /// isolation (the hidden `xfail` experiment and the harness tests).
    Panic {
        /// The panic payload.
        message: String,
    },
}

/// A named job within an experiment. Names are unique per experiment and
/// are how the fold step addresses results.
#[derive(Clone, Debug)]
pub struct JobSpec {
    /// Unique-within-the-experiment name, e.g. `"sst/oltp"` or
    /// `"dq32/erp"`.
    pub name: String,
    /// What to simulate.
    pub kind: JobKind,
}

/// A job's result: whichever result type its kind produces.
#[derive(Clone, Debug)]
pub enum JobOutput {
    /// From [`JobKind::Single`].
    Run(RunResult),
    /// From [`JobKind::Cmp`].
    Cmp(CmpResult),
    /// From [`JobKind::Traffic`].
    Traffic(TrafficResult),
}

impl JobOutput {
    /// The single-run result.
    ///
    /// # Panics
    ///
    /// Panics if this is a CMP result.
    pub fn run(&self) -> &RunResult {
        match self {
            JobOutput::Run(r) => r,
            _ => panic!("expected a single-run result"),
        }
    }

    /// The CMP result.
    ///
    /// # Panics
    ///
    /// Panics if this is not a CMP result.
    pub fn cmp(&self) -> &CmpResult {
        match self {
            JobOutput::Cmp(r) => r,
            _ => panic!("expected a CMP result"),
        }
    }

    /// The traffic result.
    ///
    /// # Panics
    ///
    /// Panics if this is not a traffic result.
    pub fn traffic(&self) -> &TrafficResult {
        match self {
            JobOutput::Traffic(r) => r,
            _ => panic!("expected a traffic result"),
        }
    }
}

impl JobSpec {
    /// A single run with the default memory configuration.
    pub fn single(name: impl Into<String>, model: CoreModel, workload: &str) -> JobSpec {
        JobSpec::single_mem(name, model, workload, MemConfig::default())
    }

    /// A single run with an explicit memory configuration.
    pub fn single_mem(
        name: impl Into<String>,
        model: CoreModel,
        workload: &str,
        mem: MemConfig,
    ) -> JobSpec {
        JobSpec {
            name: name.into(),
            kind: JobKind::Single {
                model,
                workload: workload.to_string(),
                mem,
            },
        }
    }

    /// An open-loop traffic point.
    pub fn traffic(name: impl Into<String>, spec: TrafficSpec) -> JobSpec {
        JobSpec {
            name: name.into(),
            kind: JobKind::Traffic(spec),
        }
    }

    /// A taint-tracked leakage run with the default memory configuration.
    pub fn leakage(name: impl Into<String>, model: CoreModel, workload: &str) -> JobSpec {
        JobSpec {
            name: name.into(),
            kind: JobKind::Leakage {
                model,
                workload: workload.to_string(),
                mem: MemConfig::default(),
            },
        }
    }

    /// A CMP throughput run.
    pub fn cmp(name: impl Into<String>, model: CoreModel, workload: &str, cores: usize) -> JobSpec {
        JobSpec {
            name: name.into(),
            kind: JobKind::Cmp {
                model,
                workload: workload.to_string(),
                cores,
                mem: MemConfig::default(),
            },
        }
    }

    /// The canonical cache key: a readable string covering everything
    /// that determines the job's output — experiment id, job kind, full
    /// model and memory configuration (via their stable `Debug` forms),
    /// workload, seed, scale, cycle budget, and the crate version (so new
    /// releases never serve stale numbers).
    pub fn cache_key(&self, exp_id: &str, env: &Env) -> String {
        let mut key = format!(
            "v={};exp={};job={};scale={};seed={};max_cycles={};",
            env!("CARGO_PKG_VERSION"),
            exp_id,
            self.name,
            env.scale_token(),
            env.seed,
            env.max_cycles,
        );
        match &self.kind {
            JobKind::Single {
                model,
                workload,
                mem,
            } => {
                key.push_str(&format!(
                    "kind=single;model={model:?};workload={workload};mem={mem:?}"
                ));
            }
            JobKind::Cmp {
                model,
                workload,
                cores,
                mem,
            } => {
                key.push_str(&format!(
                    "kind=cmp;model={model:?};workload={workload};cores={cores};mem={mem:?}"
                ));
            }
            JobKind::Traffic(spec) => {
                // The spec's stable Debug form carries every sweep
                // parameter (load, queue bounds, policy, quantum, ...).
                key.push_str(&format!("kind=traffic;spec={spec:?}"));
            }
            JobKind::Leakage {
                model,
                workload,
                mem,
            } => {
                // `kind=taint`, not the earlier `kind=leakage`: entries
                // stored before taint moved onto the core's probes lack
                // the in-order model's (all-zero) `leak_` counters.
                key.push_str(&format!(
                    "kind=taint;model={model:?};workload={workload};mem={mem:?}"
                ));
            }
            JobKind::Panic { message } => {
                key.push_str(&format!("kind=panic;message={message}"));
            }
        }
        key
    }

    /// FNV-1a hash of the cache key — the cache file name.
    pub fn cache_hash(&self, exp_id: &str, env: &Env) -> u64 {
        fnv1a(self.cache_key(exp_id, env).as_bytes())
    }

    /// Runs the job to completion.
    ///
    /// `threads` is the CMP simulation thread count — a pure wall-clock
    /// knob (the parallel driver is byte-identical to the serial one),
    /// which is why it is a call argument and not part of the spec or
    /// the cache key. Single runs ignore it.
    ///
    /// Returns `Err` with a descriptive message for *detected* failures
    /// (a run exceeding the cycle budget, a co-simulation divergence).
    /// Model bugs that panic are *not* caught here — the scheduler wraps
    /// this call in `catch_unwind`.
    pub fn execute(&self, env: &Env, threads: usize) -> Result<JobOutput, String> {
        match &self.kind {
            JobKind::Single {
                model,
                workload,
                mem,
            } => {
                let w = Workload::by_name(workload, env.scale, env.seed)
                    .unwrap_or_else(|| panic!("unknown workload {workload:?}"));
                System::with_mem(model.clone(), &w, mem)
                    .without_cosim()
                    .run_checked(env.max_cycles)
                    .map(JobOutput::Run)
                    .map_err(|e| e.to_string())
            }
            JobKind::Cmp {
                model,
                workload,
                cores,
                mem,
            } => {
                // CmpSystem::run panics on a budget overrun; the
                // scheduler's catch_unwind turns that into a failure
                // record like any other panic.
                let r = CmpSystem::homogeneous(
                    model.clone(),
                    workload,
                    env.scale,
                    env.seed,
                    *cores,
                    mem,
                )
                .with_threads(threads)
                .run(env.max_cycles);
                Ok(JobOutput::Cmp(r))
            }
            JobKind::Traffic(spec) => {
                // Like Cmp, a budget overrun panics inside the service
                // driver and surfaces through the scheduler's
                // catch_unwind as a failed job.
                let r =
                    sst_traffic::run_traffic(spec, env.scale, env.seed, threads, env.max_cycles);
                Ok(JobOutput::Traffic(r))
            }
            JobKind::Leakage {
                model,
                workload,
                mem,
            } => {
                let w = Workload::by_name(workload, env.scale, env.seed)
                    .unwrap_or_else(|| panic!("unknown workload {workload:?}"));
                System::with_mem(model.clone(), &w, mem)
                    .without_cosim()
                    .run_with_leakage(env.max_cycles)
                    .map(|(mut r, leak)| {
                        r.counters
                            .extend(leak.counters().into_iter().map(|(n, v)| (n.to_string(), v)));
                        JobOutput::Run(r)
                    })
                    .map_err(|e| e.to_string())
            }
            JobKind::Panic { message } => panic!("{message}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env() -> Env {
        Env {
            scale: sst_workloads::Scale::Smoke,
            seed: 7,
            max_cycles: 100_000_000,
        }
    }

    #[test]
    fn cache_key_is_stable_and_sensitive() {
        let j = JobSpec::single("sst/oltp", CoreModel::Sst, "oltp");
        let k1 = j.cache_key("e4", &env());
        let k2 = j.cache_key("e4", &env());
        assert_eq!(k1, k2, "same spec, same key");
        assert_eq!(j.cache_hash("e4", &env()), j.cache_hash("e4", &env()));

        // Any parameter change must move the hash.
        let mut other = env();
        other.seed = 8;
        assert_ne!(j.cache_hash("e4", &env()), j.cache_hash("e4", &other));
        assert_ne!(j.cache_hash("e4", &env()), j.cache_hash("e3", &env()));
        let j2 = JobSpec::single("sst/oltp", CoreModel::Sst, "erp");
        assert_ne!(j.cache_hash("e4", &env()), j2.cache_hash("e4", &env()));
        let j3 = JobSpec::single("sst/oltp", CoreModel::Scout, "oltp");
        assert_ne!(j.cache_hash("e4", &env()), j3.cache_hash("e4", &env()));
    }

    #[test]
    fn config_contents_reach_the_key() {
        use sst_core::SstConfig;
        let a = JobSpec::single(
            "x",
            CoreModel::CustomSst(SstConfig {
                dq_entries: 16,
                ..SstConfig::sst()
            }),
            "gups",
        );
        let b = JobSpec::single(
            "x",
            CoreModel::CustomSst(SstConfig {
                dq_entries: 32,
                ..SstConfig::sst()
            }),
            "gups",
        );
        assert_ne!(a.cache_hash("e6", &env()), b.cache_hash("e6", &env()));
    }

    #[test]
    fn cmp_output_is_identical_for_any_thread_count() {
        // `threads` is a wall-clock knob: the same spec must produce the
        // same CmpResult at 1 and 4 simulation threads (which is why it
        // is not in the cache key).
        let j = JobSpec::cmp("sst/x4", CoreModel::Sst, "erp", 4);
        let serial = j.execute(&env(), 1).expect("runs");
        let parallel = j.execute(&env(), 4).expect("runs");
        assert_eq!(serial.cmp(), parallel.cmp());
    }

    #[test]
    fn single_executes_and_reports_budget_overruns() {
        let j = JobSpec::single("io/gzip", CoreModel::InOrder, "gzip");
        let out = j.execute(&env(), 1).expect("runs");
        assert!(out.run().insts > 0);

        let tiny = Env {
            max_cycles: 50,
            ..env()
        };
        let err = j.execute(&tiny, 1).unwrap_err();
        assert!(err.contains("did not halt"), "{err}");
    }
}
