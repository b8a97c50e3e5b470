//! The six end-to-end workloads.
//!
//! Each one times calls into the crates' public functions from outside
//! and changes nothing under `crates/`. Why each exists is recorded in
//! [`crate::registry::WORKLOADS`].

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use sst_harness::sched::{self, RunConfig, RunSummary};
use sst_harness::{Env, Experiment};
use sst_mem::{MemConfig, MemStats};
use sst_sim::{
    geomean, run_sampled, CmpResult, CmpSystem, CoreModel, CosimError, RunResult, SampledResult,
    SamplingConfig, System,
};
use sst_traffic::{run_traffic, Policy, TrafficResult, TrafficSpec};
use sst_workloads::{oltp_sized, Scale, ServerKernel, Workload};

use crate::driver::{digest_of, fnv1a, Ladder, Ops, UnitOut, FNV_OFFSET};
use crate::json::Json;
use crate::span::Tracer;
use crate::stats::{median, Summary};

/// Wedge insurance; every run here halts long before it.
pub const MAX_CYCLES: u64 = 20_000_000_000;

/// The five pipeline families, with the per-layer key each is reported
/// under (the crate that implements it, then the configuration).
pub fn models() -> [(CoreModel, &'static str); 5] {
    [
        (CoreModel::InOrder, "inorder"),
        (CoreModel::Scout, "core.scout"),
        (CoreModel::ExecuteAhead, "core.ea"),
        (CoreModel::Sst, "core.sst"),
        (CoreModel::Ooo128, "ooo.o128"),
    ]
}

fn add_mem_counts(counts: &mut BTreeMap<&'static str, f64>, mem: &MemStats) {
    let l1d: u64 = mem.l1d.iter().map(|c| c.misses()).sum();
    *counts.entry("mem.l1d_misses").or_insert(0.0) += l1d as f64;
    *counts.entry("mem.l2_misses").or_insert(0.0) += mem.l2.misses() as f64;
    *counts.entry("mem.dram_reads").or_insert(0.0) += mem.dram_reads as f64;
}

// ---------------------------------------------------------------------
// core_compute / core_missheavy

/// Five models over a list of single-core workloads.
pub struct CoreMatrix {
    pub names: &'static [&'static str],
    pub scale: Scale,
    pub seed: u64,
    /// `--quick`: keep even the headline runs at smoke scale.
    pub quick: bool,
    /// Per-run digests of the last checked unit, for `verify`.
    run_digests: Vec<u64>,
}

impl CoreMatrix {
    pub fn new(names: &'static [&'static str], scale: Scale, seed: u64, quick: bool) -> CoreMatrix {
        CoreMatrix {
            names,
            scale,
            seed,
            quick,
            run_digests: Vec::new(),
        }
    }
}

impl Ladder for CoreMatrix {
    type Input = Vec<Workload>;
    type Raw = Vec<Result<RunResult, CosimError>>;

    fn setup(&mut self, tr: &mut Tracer) -> Vec<Workload> {
        let s = tr.enter("workloads", || format!("Workload::suite{:?}", self.names));
        let suite = Workload::suite(self.names, self.scale, self.seed);
        tr.exit(s);
        suite
    }

    fn unit(&mut self, suite: Vec<Workload>, tr: &mut Tracer) -> Self::Raw {
        let mut out = Vec::with_capacity(suite.len() * 5);
        for w in &suite {
            for (model, tag) in models() {
                let s = tr.enter("sim", || {
                    format!("System::run_checked[{}/{}]", model.label(), w.name)
                });
                let r = System::new(model, w)
                    .without_cosim()
                    .run_checked(MAX_CYCLES);
                tr.exit_tagged(s, tag, r.as_ref().map_or(0, |r| r.insts));
                out.push(r);
            }
        }
        out
    }

    fn check(&mut self, raw: Self::Raw, _: &mut Tracer, ops: &mut Ops) -> UnitOut {
        let mut out = UnitOut::default();
        self.run_digests.clear();
        let (mut predictions, mut mispredictions, mut sst_insts) = (0u64, 0u64, 0u64);
        let mut sst_waste = [0u64; 4];
        for r in raw {
            match r {
                Ok(r) => {
                    ops.check(true, String::new);
                    out.insts += r.insts;
                    out.cycles += r.cycles;
                    add_mem_counts(&mut out.counts, &r.mem);
                    predictions += r.counter("cond_predictions").unwrap_or(0);
                    mispredictions += r.counter("cond_mispredictions").unwrap_or(0);
                    if r.model == "sst" {
                        sst_insts += r.insts;
                        for (slot, name) in sst_waste.iter_mut().zip([
                            "deferred",
                            "replayed",
                            "redeferred",
                            "fail_branch",
                        ]) {
                            *slot += r.counter(name).unwrap_or(0);
                        }
                    }
                    self.run_digests.push(digest_of(&r));
                }
                Err(e) => {
                    ops.check(false, || format!("run failed: {}", e.what));
                    self.run_digests.push(0);
                }
            }
        }
        out.digest = digest_of(&self.run_digests);
        out.counts.insert(
            "branch.cond_mispredict_ppm",
            mispredictions as f64 * 1e6 / predictions.max(1) as f64,
        );
        for (n, name) in sst_waste.iter().zip([
            "core.sst.deferred_per_kinst",
            "core.sst.replayed_per_kinst",
            "core.sst.redeferred_per_kinst",
            "core.sst.fail_branch_per_kinst",
        ]) {
            out.counts
                .insert(name, *n as f64 * 1e3 / sst_insts.max(1) as f64);
        }
        out
    }

    /// One co-simulated run per model and workload: every commit is
    /// checked against the functional interpreter, and the result must
    /// equal the timed (co-simulation off) run's.
    fn verify(&mut self, reference: &mut UnitOut, _: &Summary, _: &mut Tracer, ops: &mut Ops) {
        let suite = Workload::suite(self.names, self.scale, self.seed);
        let mut digests = self.run_digests.iter();
        for w in &suite {
            for (model, _) in models() {
                let label = model.label();
                let want = digests.next().copied();
                match System::new(model, w).run_checked(MAX_CYCLES) {
                    Ok(r) => ops.check(Some(digest_of(&r)) == want, || {
                        format!(
                            "{label}/{}: co-simulated result differs from the timed run",
                            w.name
                        )
                    }),
                    Err(e) => ops.check(false, || format!("{label}/{}: cosim: {}", w.name, e.what)),
                }
            }
        }
        if Workload::commercial_names()
            .iter()
            .all(|c| self.names.contains(c))
        {
            self.headline(reference, ops);
        }
    }
}

impl CoreMatrix {
    /// The study's headline (E4), as the accuracy column beside the speed:
    /// SST's measured IPC over the 128-entry OoO core's, geometric mean
    /// over the commercial suite, at the scale the study publishes. The
    /// only number the paper gives to hold it against is "+18%".
    fn headline(&self, reference: &mut UnitOut, ops: &mut Ops) {
        let scale = if self.quick {
            Scale::Smoke
        } else {
            Scale::Full
        };
        let mut ratios = Vec::new();
        for w in Workload::suite(Workload::commercial_names(), scale, self.seed) {
            let ipc = |model: CoreModel| {
                System::new(model, &w)
                    .without_cosim()
                    .run_checked(MAX_CYCLES)
                    .map(|r| r.measured_ipc())
            };
            match (ipc(CoreModel::Sst), ipc(CoreModel::Ooo128)) {
                (Ok(sst), Ok(o128)) => ratios.push(sst / o128),
                _ => ops.check(false, || format!("headline run on {} failed", w.name)),
            }
        }
        reference
            .counts
            .insert("sim.headline_pct", (geomean(&ratios) - 1.0) * 100.0);
    }
}

// ---------------------------------------------------------------------
// cmp16

pub struct Cmp16 {
    pub seed: u64,
}

const CMP_CORES: usize = 16;
const CMP_WORKLOAD: &str = "erp";
/// Smoke footprint: sixteen full-scale images make the host itself
/// DRAM-bound, which a shared VM cannot time steadily (see README).
const CMP_FOOTPRINT: Scale = Scale::Smoke;

impl Cmp16 {
    fn build(&self) -> CmpSystem {
        CmpSystem::homogeneous(
            CoreModel::Sst,
            CMP_WORKLOAD,
            CMP_FOOTPRINT,
            self.seed,
            CMP_CORES,
            &MemConfig::default(),
        )
    }
}

fn cmp_insts(r: &CmpResult) -> u64 {
    r.per_core.iter().map(|&(_, i)| i).sum()
}

impl Ladder for Cmp16 {
    type Input = CmpSystem;
    type Raw = CmpResult;

    fn setup(&mut self, tr: &mut Tracer) -> CmpSystem {
        let s = tr.enter("sim", || {
            format!("CmpSystem::homogeneous[sst/{CMP_WORKLOAD}x{CMP_CORES}]")
        });
        let sys = self.build();
        tr.exit(s);
        sys
    }

    fn unit(&mut self, sys: CmpSystem, tr: &mut Tracer) -> CmpResult {
        let s = tr.enter("sim", || "CmpSystem::run[threads=1]".into());
        let r = sys.with_threads(1).run(MAX_CYCLES);
        tr.exit_tagged(s, "core.sst", cmp_insts(&r));
        r
    }

    fn check(&mut self, r: CmpResult, _: &mut Tracer, ops: &mut Ops) -> UnitOut {
        ops.check(r.per_core.len() == CMP_CORES, || {
            "a core is missing from the result".into()
        });
        let mut out = UnitOut {
            insts: cmp_insts(&r),
            cycles: r.cycles,
            digest: digest_of(&r),
            ..UnitOut::default()
        };
        add_mem_counts(&mut out.counts, &r.mem);
        out
    }

    /// The parallel driver must reproduce the serial result exactly. The
    /// same run gives the two-thread speed-up, and a single-core run of
    /// the same model and workload gives the per-instruction CMP tax.
    fn verify(&mut self, reference: &mut UnitOut, wall: &Summary, _: &mut Tracer, ops: &mut Ops) {
        let sys = self.build();
        let t = Instant::now();
        let r2 = sys.with_threads(2).run(MAX_CYCLES);
        let wall_t2 = t.elapsed().as_secs_f64();
        ops.check(digest_of(&r2) == reference.digest, || {
            "threads=2 result differs from threads=1".into()
        });
        reference
            .counts
            .insert("mem.parallel.speedup_t2", wall.median / wall_t2);

        let w = Workload::by_name(CMP_WORKLOAD, CMP_FOOTPRINT, self.seed).expect("known workload");
        let mut single_insts = 0;
        let single: Vec<f64> = (0..3)
            .map(|_| {
                let t = Instant::now();
                let r = System::new(CoreModel::Sst, &w)
                    .without_cosim()
                    .run_checked(MAX_CYCLES);
                single_insts = r.map_or(0, |r| r.insts);
                t.elapsed().as_secs_f64()
            })
            .collect();
        ops.check(single_insts > 0, || {
            format!("single-core sst/{CMP_WORKLOAD} failed")
        });
        let cmp_ns_per_inst = wall.median / reference.insts.max(1) as f64;
        let single_ns_per_inst = median(&single) / single_insts.max(1) as f64;
        reference
            .counts
            .insert("sim.cmp.tax_ratio", cmp_ns_per_inst / single_ns_per_inst);
    }
}

// ---------------------------------------------------------------------
// sampled_oltp

pub struct SampledOltp {
    pub txns: i64,
    pub seed: u64,
    cpi: f64,
}

/// Sampled CPI may differ from the detailed reference by this much (the
/// gate `sst-run bench --sampling` already applies).
const SAMPLING_MAX_ERR_PCT: f64 = 3.0;

impl SampledOltp {
    pub fn new(txns: i64, seed: u64) -> SampledOltp {
        SampledOltp {
            txns,
            seed,
            cpi: 0.0,
        }
    }

    /// Continuous functional warming, as in `sst-run bench --sampling`:
    /// the whole gap between intervals runs through the warming path.
    fn config() -> SamplingConfig {
        let (period, interval) = (2_000_000, 20_000);
        SamplingConfig {
            period,
            interval,
            warm: period - interval - 1,
            ..SamplingConfig::default()
        }
    }
}

impl Ladder for SampledOltp {
    type Input = Workload;
    type Raw = Result<SampledResult, CosimError>;

    fn setup(&mut self, tr: &mut Tracer) -> Workload {
        let s = tr.enter("workloads", || format!("oltp_sized[{} txns]", self.txns));
        // Smoke footprint at any scale: the detailed reference run has to
        // fit the run's time limit.
        let w = oltp_sized(Scale::Smoke, self.seed, 0, self.txns);
        tr.exit(s);
        w
    }

    fn unit(&mut self, w: Workload, tr: &mut Tracer) -> Self::Raw {
        let s = tr.enter("sim", || "run_sampled[sst/oltp]".into());
        let r = run_sampled(CoreModel::Sst, &w, &SampledOltp::config());
        tr.exit_tagged(s, "core.sst", r.as_ref().map_or(0, |r| r.insts));
        r
    }

    fn check(&mut self, raw: Self::Raw, _: &mut Tracer, ops: &mut Ops) -> UnitOut {
        let r = match raw {
            Ok(r) => r,
            Err(e) => {
                ops.check(false, || format!("run_sampled: {}", e.what));
                return UnitOut::default();
            }
        };
        ops.check(r.intervals > 0, || "no interval was measured".into());
        self.cpi = r.cpi;
        let mut out = UnitOut {
            insts: r.insts,
            cycles: r.detailed_cycles,
            digest: digest_of(&r),
            ..UnitOut::default()
        };
        out.counts.insert(
            "sim.sampling.functional_insts",
            (r.insts - r.detailed_insts) as f64,
        );
        out.counts
            .insert("sim.sampling.detailed_insts", r.detailed_insts as f64);
        out.counts
            .insert("sim.sampling.intervals", r.intervals as f64);
        out
    }

    /// The accuracy half of the table: sampled CPI against one fully
    /// detailed run of the same program (its measured, post-warm-up
    /// region — the region the intervals estimate).
    fn verify(&mut self, reference: &mut UnitOut, _: &Summary, _: &mut Tracer, ops: &mut Ops) {
        let w = oltp_sized(Scale::Smoke, self.seed, 0, self.txns);
        match System::new(CoreModel::Sst, &w)
            .without_cosim()
            .run_checked(MAX_CYCLES)
        {
            Ok(r) => {
                let detailed =
                    (r.cycles - r.warmup_cycles) as f64 / (r.insts - r.warmup_insts).max(1) as f64;
                let err_pct = (self.cpi - detailed).abs() / detailed * 100.0;
                ops.check(err_pct <= SAMPLING_MAX_ERR_PCT, || {
                    format!(
                        "sampled CPI {} is {err_pct:.2}% from detailed {detailed}",
                        self.cpi
                    )
                });
                reference.counts.insert("sim.sampling.cpi_err_pct", err_pct);
            }
            Err(e) => ops.check(false, || format!("detailed reference: {}", e.what)),
        }
    }
}

// ---------------------------------------------------------------------
// traffic_oltp

pub struct TrafficOltp {
    /// `--quick`: E14's smoke-scale spec instead of its full-scale one.
    pub quick: bool,
    pub seed: u64,
}

/// The server kernels' footprint. Smoke: the service driver does the same
/// work either way (same instructions, within 10% of the sheds), while the
/// 8 x 32 MiB full-scale images make the host itself DRAM-bound, which a
/// shared VM cannot time steadily.
const TRAFFIC_FOOTPRINT: Scale = Scale::Smoke;

/// Load points: below SST's knee, and SST in overload (about half the
/// requests shed).
pub fn traffic_points() -> [(CoreModel, u32, &'static str); 2] {
    [
        (CoreModel::Sst, 100, "sst_l100"),
        (CoreModel::Sst, 350, "sst_l350"),
    ]
}

/// Builds and drops one oltp server kernel per core slot, the way every
/// `run_traffic` call does (same per-core seed derivation).
pub fn build_server_kernels(scale: Scale, seed: u64, slots: usize) {
    for slot in 0..slots {
        let mut s = seed.wrapping_add((slot as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let core_seed = sst_prng::splitmix64(&mut s);
        std::hint::black_box(ServerKernel::by_name("oltp", scale, core_seed, slot));
    }
}

impl TrafficOltp {
    /// E14's spec (`crates/harness/src/experiments/traffic.rs`).
    fn spec(&self, model: CoreModel, load_permille: u32) -> TrafficSpec {
        let (cores, requests, warmup, txns_per_request) = if self.quick {
            (2, 96, 16, 4)
        } else {
            (8, 1_200, 64, 8)
        };
        TrafficSpec {
            model,
            workload: "oltp".into(),
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
}

impl Ladder for TrafficOltp {
    /// `run_traffic` builds its server kernels itself on every call, so
    /// the unit takes no input; set-up times one such build, the cost each
    /// call repeats.
    type Input = ();
    type Raw = Vec<TrafficResult>;

    fn setup(&mut self, tr: &mut Tracer) {
        let cores = self.spec(CoreModel::Sst, 100).cores;
        let s = tr.enter("workloads", || {
            format!("ServerKernel::by_name[oltp x{cores}]")
        });
        build_server_kernels(TRAFFIC_FOOTPRINT, self.seed, cores);
        tr.exit(s);
    }

    fn unit(&mut self, (): (), tr: &mut Tracer) -> Vec<TrafficResult> {
        traffic_points()
            .into_iter()
            .map(|(model, load, tag)| {
                let spec = self.spec(model, load);
                let s = tr.enter("traffic", || format!("run_traffic[{tag}]"));
                let r = run_traffic(&spec, TRAFFIC_FOOTPRINT, self.seed, 1, MAX_CYCLES);
                tr.exit_tagged(s, tag, r.per_core.iter().map(|&(_, i)| i).sum());
                r
            })
            .collect()
    }

    fn check(&mut self, raw: Vec<TrafficResult>, _: &mut Tracer, ops: &mut Ops) -> UnitOut {
        let mut out = UnitOut {
            digest: digest_of(&raw),
            ..UnitOut::default()
        };
        for (r, (_, _, tag)) in raw.iter().zip(traffic_points()) {
            ops.check(r.completed + r.shed == r.offered, || {
                format!(
                    "{tag}: completed {} + shed {} != offered {}",
                    r.completed, r.shed, r.offered
                )
            });
            out.insts += r.per_core.iter().map(|&(_, i)| i).sum::<u64>();
            out.cycles += r.cycles;
            add_mem_counts(&mut out.counts, &r.mem);
            match tag {
                "sst_l100" => {
                    let p99 = r.hist.percentile_permille(990).unwrap_or(0);
                    out.counts.insert("traffic.p99_cycles.sst_l100", p99 as f64);
                }
                "sst_l350" => {
                    out.counts.insert("traffic.shed.sst_l350", r.shed as f64);
                }
                _ => {}
            }
        }
        out
    }

    fn verify(&mut self, _: &mut UnitOut, _: &Summary, _: &mut Tracer, _: &mut Ops) {}
}

// ---------------------------------------------------------------------
// study_e4

/// `sst-run e4` as a user types it, against a fresh results directory.
pub struct StudyE4 {
    pub seed: u64,
    pub out_dir: PathBuf,
    cached_pass_ms: Vec<f64>,
    overhead_ms: Vec<f64>,
}

impl StudyE4 {
    pub fn new(seed: u64, out_dir: PathBuf) -> StudyE4 {
        StudyE4 {
            seed,
            out_dir,
            cached_pass_ms: Vec::new(),
            overhead_ms: Vec::new(),
        }
    }

    fn config(&self, jobs: usize) -> RunConfig {
        RunConfig {
            jobs,
            sim_threads: 1,
            use_cache: true,
            out_dir: self.out_dir.clone(),
            // Smoke scale: a cold full-scale E4 takes longer than a whole
            // run may. The scheduler, cache, fold and emit work per job is
            // the same at either scale.
            env: Env {
                scale: Scale::Smoke,
                seed: self.seed,
                max_cycles: MAX_CYCLES,
            },
            quiet: true,
            shard: None,
        }
    }

    fn fresh_dir(&self) {
        let _ = std::fs::remove_dir_all(&self.out_dir);
        std::fs::create_dir_all(&self.out_dir)
            .expect("results directory inside the checkout is writable");
    }

    /// Every CSV the study wrote, by file name.
    fn csvs(&self) -> BTreeMap<String, Vec<u8>> {
        let mut out = BTreeMap::new();
        if let Ok(dir) = std::fs::read_dir(self.out_dir.join("results")) {
            for entry in dir.flatten() {
                let name = entry.file_name().to_string_lossy().into_owned();
                if name.ends_with(".csv") {
                    out.insert(name, std::fs::read(entry.path()).unwrap_or_default());
                }
            }
        }
        out
    }

    fn read_json(&self, name: &str) -> Option<Json> {
        let text = std::fs::read_to_string(self.out_dir.join("results").join(name)).ok()?;
        Json::parse(&text).ok()
    }
}

fn csv_digest(csvs: &BTreeMap<String, Vec<u8>>) -> u64 {
    csvs.iter().fold(FNV_OFFSET, |h, (name, bytes)| {
        fnv1a(bytes, fnv1a(name.as_bytes(), h))
    })
}

impl Drop for StudyE4 {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.out_dir);
    }
}

impl Ladder for StudyE4 {
    type Input = (Experiment, RunConfig);
    type Raw = (RunSummary, Duration);

    /// A fresh results directory and the registry lookup, plus one build
    /// of the twelve workloads: every job rebuilds its own (each workload
    /// four times over the 48 jobs), so this is the cost a shared image
    /// cache would have to beat.
    fn setup(&mut self, tr: &mut Tracer) -> Self::Input {
        let s = tr.enter("harness", || {
            "registry::find[e4] + fresh results dir".into()
        });
        self.fresh_dir();
        let exp = sst_harness::registry::find("e4").expect("e4 is registered");
        let cfg = self.config(1);
        tr.exit(s);
        let s = tr.enter("workloads", || "Workload::suite[all 12, smoke]".into());
        std::hint::black_box(Workload::suite(
            Workload::all_names(),
            cfg.env.scale,
            self.seed,
        ));
        tr.exit(s);
        (exp, cfg)
    }

    fn unit(&mut self, (exp, cfg): Self::Input, tr: &mut Tracer) -> Self::Raw {
        let s = tr.enter("harness", || "sched::run[e4 cold]".into());
        let t = Instant::now();
        let summary = sched::run(&[exp], &cfg);
        let wall = t.elapsed();
        tr.exit(s);
        (summary, wall)
    }

    fn check(&mut self, (cold, cold_wall): Self::Raw, tr: &mut Tracer, ops: &mut Ops) -> UnitOut {
        // Each job is an operation; a failed one has a failure record.
        ops.attempted += cold.total_jobs as u64;
        ops.failed += cold.failures.len() as u64;
        ops.failures.extend(
            cold.failures
                .iter()
                .map(|f| format!("{}: {}: {}", f.job, f.kind, f.message)),
        );
        ops.check(
            cold.clean() && cold.executed_jobs() == cold.total_jobs,
            || {
                format!(
                    "cold pass executed {} of {} jobs",
                    cold.executed_jobs(),
                    cold.total_jobs
                )
            },
        );

        let mut out = UnitOut::default();
        let cold_csvs = self.csvs();
        ops.check(!cold_csvs.is_empty(), || {
            "the cold pass wrote no CSV".into()
        });
        out.digest = csv_digest(&cold_csvs);
        let jobs = self.read_json("e4.json");
        let jobs = jobs
            .as_ref()
            .and_then(|d| d.get("jobs"))
            .and_then(Json::as_arr)
            .unwrap_or(&[]);
        ops.check(jobs.len() == cold.total_jobs, || {
            "results/e4.json does not list every job".into()
        });
        for job in jobs {
            out.insts += job.get("insts").and_then(Json::as_f64).unwrap_or(0.0) as u64;
            out.cycles += job.get("cycles").and_then(Json::as_f64).unwrap_or(0.0) as u64;
        }
        // Scheduler overhead: the cold pass's wall minus the time spent
        // inside the jobs themselves, which the manifest records.
        let executed_ns: f64 = self
            .read_json("manifest.json")
            .as_ref()
            .and_then(|m| m.get("experiments"))
            .and_then(Json::as_arr)
            .into_iter()
            .flatten()
            .filter_map(|e| e.get("jobs").and_then(Json::as_arr))
            .flatten()
            .filter_map(|j| j.get("execute_ns").and_then(Json::as_f64))
            .sum();
        self.overhead_ms
            .push(cold_wall.as_secs_f64() * 1e3 - executed_ns / 1e6);

        // The same command again is served entirely from the cache and
        // must reproduce the tables byte for byte.
        let exp = sst_harness::registry::find("e4").expect("e4 is registered");
        let s = tr.enter("harness", || "sched::run[e4 cached]".into());
        let t = Instant::now();
        let cached = sched::run(&[exp], &self.config(1));
        self.cached_pass_ms.push(t.elapsed().as_secs_f64() * 1e3);
        tr.exit(s);
        ops.check(cached.clean() && cached.executed_jobs() == 0, || {
            format!("cached pass executed {} jobs", cached.executed_jobs())
        });
        ops.check(self.csvs() == cold_csvs, || {
            "cached pass changed a CSV".into()
        });
        out.counts
            .insert("harness.failed_jobs", cold.failures.len() as f64);
        out
    }

    fn verify(&mut self, reference: &mut UnitOut, wall: &Summary, _: &mut Tracer, ops: &mut Ops) {
        reference
            .counts
            .insert("harness.sched.cached_pass_ms", median(&self.cached_pass_ms));
        reference
            .counts
            .insert("harness.sched.overhead_ms", median(&self.overhead_ms));
        // Two scheduler workers against one: the tables must not change.
        self.fresh_dir();
        let exp = sst_harness::registry::find("e4").expect("e4 is registered");
        let t = Instant::now();
        let two = sched::run(&[exp], &self.config(2));
        let wall_jobs2 = t.elapsed().as_secs_f64();
        ops.check(two.clean(), || "the --jobs 2 pass was not clean".into());
        ops.check(csv_digest(&self.csvs()) == reference.digest, || {
            "--jobs 2 changed a CSV".into()
        });
        reference
            .counts
            .insert("harness.sched.jobs2_speedup", wall.median / wall_jobs2);
    }
}
