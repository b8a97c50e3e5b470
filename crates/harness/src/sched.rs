//! The scheduler: a work-queue worker pool with per-job fault isolation,
//! cache integration, deterministic fold ordering, and the run manifest.
//!
//! Determinism: job *results* are pure functions of their spec (the
//! simulators are deterministic), fold steps run on the coordinating
//! thread in declared experiment order, and folds read results by job
//! name — so the emitted tables are byte-identical for any `--jobs N`
//! and any completion order.

use std::collections::BTreeMap;
use std::fs;
use std::io::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::mpsc;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::job::{JobOutput, JobSpec};
use crate::json::JVal;
use crate::registry::{Experiment, RunCtx};
use crate::{cache, Env};

/// Scheduler configuration: everything about *how* to run, none of which
/// may influence results.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// Worker thread count (>= 1).
    pub jobs: usize,
    /// Simulation threads per CMP job (>= 1). Purely a wall-clock knob:
    /// the parallel CMP driver is byte-identical to the serial one, so
    /// this must never enter cache keys.
    pub sim_threads: usize,
    /// Serve and populate the content-addressed cache.
    pub use_cache: bool,
    /// Output root; `results/` is created beneath it.
    pub out_dir: PathBuf,
    /// The experiment environment.
    pub env: Env,
    /// Suppress per-job progress lines (tests).
    pub quiet: bool,
    /// Scale-out partition `(index, count)` from `--shard i/n`: this
    /// process *executes* only the jobs whose cache hash satisfies
    /// `hash % n == i`. Non-owned jobs still serve from the cache when
    /// another shard has already published them; otherwise they are
    /// recorded as `"skipped"` — never failed. `None` owns everything.
    pub shard: Option<(usize, usize)>,
}

/// How long a claim file may exist before any scheduler may break it.
/// Claims normally live for one job's execution and are removed by their
/// RAII guard even on panic; only a SIGKILLed process leaves one behind.
const STALE_CLAIM_GRACE: Duration = Duration::from_secs(600);

/// Poll interval while waiting for a claim holder to publish its result.
const CLAIM_POLL: Duration = Duration::from_millis(25);

impl RunConfig {
    /// Defaults: available parallelism, cache on, env + out dir from the
    /// process environment; `Err` names a malformed variable.
    pub fn from_os() -> Result<RunConfig, String> {
        Ok(RunConfig {
            jobs: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            sim_threads: 1,
            use_cache: true,
            out_dir: crate::out_dir_from_os(),
            env: Env::from_os()?,
            quiet: false,
            shard: None,
        })
    }
}

/// Process-wide state for [`SilentPanicGuard`]: how many scheduler runs
/// currently want the hook silenced, and the hook that was installed when
/// the first of them arrived.
struct SilenceState {
    depth: usize,
    saved: Option<PanicHook>,
}

/// A panic hook as `std::panic::take_hook` returns it.
type PanicHook = Box<dyn Fn(&std::panic::PanicHookInfo<'_>) + Send + Sync>;

static SILENCE: Mutex<SilenceState> = Mutex::new(SilenceState {
    depth: 0,
    saved: None,
});

/// RAII silencer for the global panic hook.
///
/// The panic hook is process-global, but `run` may execute concurrently
/// (the test suite does exactly that). A bare `take_hook`/`set_hook` pair
/// races: two overlapping runs can save each other's no-op hook and the
/// original hook is lost forever, or the second restore resurrects
/// backtrace spew while jobs are still being caught. Instead, a
/// process-wide refcount installs the no-op hook when the first guard
/// appears and restores the original only when the last guard drops —
/// and drop-on-unwind means the hook is restored even if the scheduler
/// itself panics.
struct SilentPanicGuard;

impl SilentPanicGuard {
    fn install() -> SilentPanicGuard {
        let mut st = SILENCE.lock().unwrap();
        if st.depth == 0 {
            st.saved = Some(std::panic::take_hook());
            std::panic::set_hook(Box::new(|_| {}));
        }
        st.depth += 1;
        SilentPanicGuard
    }
}

impl Drop for SilentPanicGuard {
    fn drop(&mut self) {
        let mut st = SILENCE.lock().unwrap();
        st.depth -= 1;
        if st.depth == 0 {
            if let Some(hook) = st.saved.take() {
                std::panic::set_hook(hook);
            }
        }
    }
}

/// A structured record of one failed job.
#[derive(Clone, Debug)]
pub struct FailureRecord {
    /// Experiment id.
    pub experiment: String,
    /// Job name within the experiment.
    pub job: String,
    /// `"panic"` (caught unwind) or `"error"` (detected failure, e.g. a
    /// cycle-budget overrun).
    pub kind: String,
    /// The panic payload or error message.
    pub message: String,
}

/// Per-job outcome recorded in the manifest.
#[derive(Clone, Debug)]
struct JobRecord {
    name: String,
    /// `"ok"`, `"cached"`, `"skipped"` (owned by another shard), or
    /// `"failed"`.
    status: &'static str,
    duration_ms: u64,
    /// Host wall time spent *inside* `JobSpec::execute` (0 when the
    /// result came from the cache) — the simulation cost itself, free of
    /// cache I/O and scheduling overhead.
    execute_ns: u64,
    cache_hash: u64,
}

/// Per-experiment outcome.
struct ExpRecord {
    id: String,
    jobs: Vec<JobRecord>,
    folded: bool,
}

/// Whole-run summary, also written as `results/manifest.json`.
pub struct RunSummary {
    /// Total jobs attempted.
    pub total_jobs: usize,
    /// Jobs served from the cache.
    pub cache_hits: usize,
    /// Structured failures (empty on a clean run).
    pub failures: Vec<FailureRecord>,
    records: Vec<ExpRecord>,
}

impl RunSummary {
    /// `true` when every job succeeded and every fold ran to completion.
    ///
    /// Checking `folded` as well as `failures` means a fold that panicked
    /// — or was skipped because its inputs never materialised — can never
    /// masquerade as a clean run. The one exception: an experiment left
    /// unfolded *only* because jobs belong to other shards is still
    /// clean — sharded runs fold when the last shard finds every input
    /// in the shared cache.
    pub fn clean(&self) -> bool {
        self.failures.is_empty()
            && self
                .records
                .iter()
                .all(|r| r.folded || r.jobs.iter().any(|j| j.status == "skipped"))
    }

    /// Jobs this process actually executed (neither cached nor skipped).
    /// The sharding tests use this to prove no job ran twice across
    /// concurrent schedulers on one output directory.
    pub fn executed_jobs(&self) -> usize {
        self.records
            .iter()
            .flat_map(|r| &r.jobs)
            .filter(|j| j.status == "ok")
            .count()
    }
}

enum Outcome {
    Ok {
        output: Box<JobOutput>,
        cached: bool,
    },
    /// Owned by another shard and not (yet) in the shared cache.
    Skipped,
    Failed {
        kind: &'static str,
        message: String,
    },
}

struct Done {
    exp_idx: usize,
    job_idx: usize,
    outcome: Outcome,
    duration_ms: u64,
    execute_ns: u64,
}

/// Runs `experiments`' jobs on the worker pool, folds each experiment
/// whose jobs all succeeded (in the given order), writes CSV/JSON
/// outputs and `results/manifest.json`, and returns the summary.
pub fn run(experiments: &[Experiment], cfg: &RunConfig) -> RunSummary {
    let env = cfg.env;
    if cfg.use_cache {
        let reaped = cache::reap_stale_claims(&cfg.out_dir, STALE_CLAIM_GRACE);
        if reaped > 0 && !cfg.quiet {
            println!("reaped {reaped} stale claim file(s) from a dead scheduler");
        }
    }
    let per_exp_jobs: Vec<Vec<JobSpec>> = experiments.iter().map(|e| (e.jobs)(&env)).collect();
    let total: usize = per_exp_jobs.iter().map(|v| v.len()).sum();

    // The work queue: (experiment index, job index), in declaration
    // order. Workers pop from the front; order only affects scheduling.
    let queue: Mutex<std::collections::VecDeque<(usize, usize)>> = Mutex::new(
        per_exp_jobs
            .iter()
            .enumerate()
            .flat_map(|(ei, jobs)| (0..jobs.len()).map(move |ji| (ei, ji)))
            .collect(),
    );

    let (tx, rx) = mpsc::channel::<Done>();
    let workers = cfg.jobs.max(1).min(total.max(1));

    let mut results: Vec<Vec<Option<JobOutput>>> =
        per_exp_jobs.iter().map(|v| vec![None; v.len()]).collect();
    let mut records: Vec<ExpRecord> = experiments
        .iter()
        .zip(&per_exp_jobs)
        .map(|(e, jobs)| ExpRecord {
            id: e.id.to_string(),
            jobs: jobs
                .iter()
                .map(|j| JobRecord {
                    name: j.name.clone(),
                    status: "failed",
                    duration_ms: 0,
                    execute_ns: 0,
                    cache_hash: j.cache_hash(e.id, &env),
                })
                .collect(),
            folded: false,
        })
        .collect();
    let mut failures: Vec<FailureRecord> = Vec::new();
    let mut cache_hits = 0usize;

    // Job and fold panics are caught and recorded; silence the default
    // hook's backtrace spew for the duration of the run (pool and fold
    // phase). The guard refcounts so concurrent runs compose.
    let _silence = SilentPanicGuard::install();

    std::thread::scope(|scope| {
        for _ in 0..workers {
            let tx = tx.clone();
            let queue = &queue;
            let per_exp_jobs = &per_exp_jobs;
            scope.spawn(move || loop {
                let Some((ei, ji)) = queue.lock().unwrap().pop_front() else {
                    return;
                };
                let spec = &per_exp_jobs[ei][ji];
                let exp_id = experiments[ei].id;
                let started = Instant::now();
                let hash = spec.cache_hash(exp_id, &env);
                let key = spec.cache_key(exp_id, &env);

                let owned = cfg
                    .shard
                    .map_or(true, |(i, n)| hash % n.max(1) as u64 == i as u64);

                let mut execute_ns = 0u64;
                let outcome = 'job: {
                    if cfg.use_cache {
                        if let Some(output) = cache::load(&cfg.out_dir, hash, &key) {
                            break 'job Outcome::Ok {
                                output: Box::new(output),
                                cached: true,
                            };
                        }
                    }
                    if !owned {
                        // Another shard's job; it will execute and
                        // publish it. Don't wait — the fold either runs
                        // on a later (cached) pass or on whichever shard
                        // finishes last.
                        break 'job Outcome::Skipped;
                    }
                    // Claim the entry so N concurrent schedulers sharing
                    // this output directory (same shard spec, or no
                    // sharding at all) never duplicate an execution: one
                    // wins and runs the job, the rest poll for its
                    // published entry.
                    let _claim_guard = if cfg.use_cache {
                        loop {
                            match cache::claim(&cfg.out_dir, hash) {
                                Ok(cache::Claim::Won(guard)) => {
                                    // The previous holder may have
                                    // published between our miss and this
                                    // win; re-check before executing.
                                    if let Some(output) = cache::load(&cfg.out_dir, hash, &key) {
                                        break 'job Outcome::Ok {
                                            output: Box::new(output),
                                            cached: true,
                                        };
                                    }
                                    break Some(guard);
                                }
                                Ok(cache::Claim::Lost) => {
                                    std::thread::sleep(CLAIM_POLL);
                                    if let Some(output) = cache::load(&cfg.out_dir, hash, &key) {
                                        break 'job Outcome::Ok {
                                            output: Box::new(output),
                                            cached: true,
                                        };
                                    }
                                    // A holder that died without
                                    // unwinding (SIGKILL) never removes
                                    // its claim; break it after the grace
                                    // period and contend again.
                                    if cache::claim_age(&cfg.out_dir, hash)
                                        .is_some_and(|age| age >= STALE_CLAIM_GRACE)
                                    {
                                        cache::remove_claim(&cfg.out_dir, hash);
                                    }
                                }
                                // A filesystem error creating the claim
                                // (read-only cache dir, quota) must not
                                // lose the run: execute unclaimed.
                                Err(_) => break None,
                            }
                        }
                    } else {
                        None
                    };
                    let exec_started = Instant::now();
                    let caught =
                        catch_unwind(AssertUnwindSafe(|| spec.execute(&env, cfg.sim_threads)));
                    execute_ns = exec_started.elapsed().as_nanos() as u64;
                    match caught {
                        Ok(Ok(output)) => {
                            if cfg.use_cache {
                                // A full cache disk is not a reason to
                                // lose the run; the store is best-effort.
                                let _ = cache::store(&cfg.out_dir, hash, &key, &output);
                            }
                            Outcome::Ok {
                                output: Box::new(output),
                                cached: false,
                            }
                        }
                        Ok(Err(message)) => Outcome::Failed {
                            kind: "error",
                            message,
                        },
                        Err(payload) => Outcome::Failed {
                            kind: "panic",
                            message: panic_message(payload.as_ref()),
                        },
                    }
                    // `_claim_guard` drops here, releasing the claim
                    // after the result is published (or the failure is
                    // final) — waiters then load the entry or re-claim.
                };

                if tx
                    .send(Done {
                        exp_idx: ei,
                        job_idx: ji,
                        outcome,
                        duration_ms: started.elapsed().as_millis() as u64,
                        execute_ns,
                    })
                    .is_err()
                {
                    return;
                }
            });
        }
        drop(tx);

        let mut done = 0usize;
        for msg in rx {
            done += 1;
            let rec = &mut records[msg.exp_idx].jobs[msg.job_idx];
            rec.duration_ms = msg.duration_ms;
            rec.execute_ns = msg.execute_ns;
            let (status, detail) = match msg.outcome {
                Outcome::Ok { output, cached } => {
                    rec.status = if cached { "cached" } else { "ok" };
                    if cached {
                        cache_hits += 1;
                    }
                    results[msg.exp_idx][msg.job_idx] = Some(*output);
                    (rec.status, String::new())
                }
                Outcome::Skipped => {
                    rec.status = "skipped";
                    ("skipped", " (other shard)".to_string())
                }
                Outcome::Failed { kind, message } => {
                    rec.status = "failed";
                    failures.push(FailureRecord {
                        experiment: records[msg.exp_idx].id.clone(),
                        job: records[msg.exp_idx].jobs[msg.job_idx].name.clone(),
                        kind: kind.to_string(),
                        message: message.clone(),
                    });
                    ("FAILED", format!(" ({kind}: {message})"))
                }
            };
            if !cfg.quiet {
                let rec = &records[msg.exp_idx].jobs[msg.job_idx];
                println!(
                    "[{done:>4}/{total}] {:<4} {:<28} {status:<6} {:>7.1}s{detail}",
                    records[msg.exp_idx].id,
                    rec.name,
                    rec.duration_ms as f64 / 1000.0,
                );
                let _ = std::io::stdout().flush();
            }
        }
    });

    // Fold phase: strictly in declaration order, on this thread.
    for (ei, exp) in experiments.iter().enumerate() {
        let complete = results[ei].iter().all(|r| r.is_some());
        if !complete {
            if !cfg.quiet {
                let missing = results[ei].iter().filter(|r| r.is_none()).count();
                let skipped = records[ei]
                    .jobs
                    .iter()
                    .filter(|j| j.status == "skipped")
                    .count();
                if skipped == missing {
                    println!(
                        "\n{}: skipping fold — {} job(s) owned by other shards \
                         (re-run unsharded once all shards finish to fold from cache)",
                        exp.id, skipped
                    );
                } else {
                    println!(
                        "\n{}: skipping fold — {} job(s) failed (see results/manifest.json)",
                        exp.id, missing
                    );
                }
            }
            continue;
        }
        let by_name: BTreeMap<String, JobOutput> = per_exp_jobs[ei]
            .iter()
            .zip(results[ei].iter_mut())
            .map(|(spec, slot)| (spec.name.clone(), slot.take().expect("complete")))
            .collect();
        let ctx = RunCtx::new(&by_name);
        // A fold that panics (a missing counter, a bad unwrap while
        // shaping a table) must not take down the remaining experiments
        // or masquerade as a clean run: catch it, record it, and leave
        // `folded` false so `RunSummary::clean()` reports the truth.
        let fold = match catch_unwind(AssertUnwindSafe(|| (exp.fold)(&env, &ctx))) {
            Ok(fold) => fold,
            Err(payload) => {
                let message = panic_message(payload.as_ref());
                if !cfg.quiet {
                    println!("\n{}: fold panicked ({message})", exp.id);
                }
                failures.push(FailureRecord {
                    experiment: exp.id.to_string(),
                    job: "(fold)".to_string(),
                    kind: "fold-panic".to_string(),
                    message,
                });
                continue;
            }
        };

        if !cfg.quiet {
            banner(exp, &env);
            for item in &fold.items {
                match item {
                    crate::registry::FoldItem::Note(n) => println!("{n}"),
                    crate::registry::FoldItem::Table(name, t) => {
                        println!("{}", t.to_markdown());
                        match t.write_csv(&cfg.out_dir, name) {
                            Ok(p) => println!("(csv written to {})\n", p.display()),
                            Err(e) => println!("(csv not written: {e})\n"),
                        }
                    }
                }
            }
            println!();
        } else {
            for (name, t) in fold.tables() {
                let _ = t.write_csv(&cfg.out_dir, name);
            }
        }
        write_experiment_json(cfg, exp, &per_exp_jobs[ei], &by_name);
        records[ei].folded = true;
    }

    let summary = RunSummary {
        total_jobs: total,
        cache_hits,
        failures,
        records,
    };
    write_manifest(cfg, &summary);
    summary
}

fn banner(exp: &Experiment, env: &Env) {
    println!("===============================================================");
    println!("{}: {}", exp.id.to_uppercase(), exp.title);
    println!("  paper target: {}", exp.paper_note);
    println!("  scale={} seed={}", env.scale_token(), env.seed);
    println!("===============================================================\n");
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

fn results_dir(cfg: &RunConfig) -> PathBuf {
    cfg.out_dir.join("results")
}

fn write_experiment_json(
    cfg: &RunConfig,
    exp: &Experiment,
    specs: &[JobSpec],
    by_name: &BTreeMap<String, JobOutput>,
) {
    let jobs: Vec<JVal> = specs
        .iter()
        .map(|spec| {
            let mut pairs: Vec<(String, JVal)> = vec![("name".to_string(), JVal::str(&spec.name))];
            match &by_name[&spec.name] {
                JobOutput::Run(r) => {
                    let defer_rate = {
                        let issued = r.counter("ahead_issued").unwrap_or(0)
                            + r.counter("replay_issued").unwrap_or(0);
                        if issued == 0 {
                            0.0
                        } else {
                            r.counter("deferred").unwrap_or(0) as f64 / issued as f64
                        }
                    };
                    pairs.extend([
                        ("kind".to_string(), JVal::str("run")),
                        ("model".to_string(), JVal::str(&r.model)),
                        ("workload".to_string(), JVal::str(&r.workload)),
                        ("cycles".to_string(), JVal::Int(r.cycles)),
                        ("insts".to_string(), JVal::Int(r.insts)),
                        ("ipc".to_string(), JVal::Num(r.ipc())),
                        ("measured_ipc".to_string(), JVal::Num(r.measured_ipc())),
                        ("defer_rate".to_string(), JVal::Num(defer_rate)),
                        (
                            "inst_mix".to_string(),
                            JVal::Obj(
                                sst_isa::InstClass::ALL
                                    .iter()
                                    .zip(r.inst_mix.iter())
                                    .map(|(c, &v)| (c.label().to_string(), JVal::Int(v)))
                                    .collect(),
                            ),
                        ),
                        (
                            "counters".to_string(),
                            JVal::Obj(
                                r.counters
                                    .iter()
                                    .map(|(n, v)| (n.clone(), JVal::Int(*v)))
                                    .collect(),
                            ),
                        ),
                        (
                            // Per-phase cycle table; rows sum exactly to
                            // `cycles` (the trace-equivalence suite pins
                            // this for every model).
                            "phases".to_string(),
                            JVal::Obj(
                                r.phases
                                    .iter()
                                    .map(|(n, v)| (n.clone(), JVal::Int(*v)))
                                    .collect(),
                            ),
                        ),
                        (
                            "mem".to_string(),
                            JVal::obj([
                                ("l1d_mpki", JVal::Num(r.mem.l1d[0].mpki(r.insts))),
                                ("l2_mpki", JVal::Num(r.mem.l2.mpki(r.insts))),
                                ("dram_reads", JVal::Int(r.mem.dram_reads)),
                                ("dram_row_hits", JVal::Int(r.mem.dram_row_hits)),
                                ("mshr_merges", JVal::Int(r.mem.mshr_merges)),
                                ("prefetches", JVal::Int(r.mem.prefetches)),
                                ("useful_prefetches", JVal::Int(r.mem.useful_prefetches)),
                            ]),
                        ),
                    ]);
                }
                JobOutput::Cmp(r) => {
                    pairs.extend([
                        ("kind".to_string(), JVal::str("cmp")),
                        ("model".to_string(), JVal::str(&r.model)),
                        ("cycles".to_string(), JVal::Int(r.cycles)),
                        ("throughput_ipc".to_string(), JVal::Num(r.throughput_ipc())),
                        ("mean_core_ipc".to_string(), JVal::Num(r.mean_core_ipc())),
                        (
                            "per_core".to_string(),
                            JVal::Arr(
                                r.per_core
                                    .iter()
                                    .map(|&(c, i)| {
                                        JVal::obj([
                                            ("cycles", JVal::Int(c)),
                                            ("insts", JVal::Int(i)),
                                        ])
                                    })
                                    .collect(),
                            ),
                        ),
                        ("dram_reads".to_string(), JVal::Int(r.mem.dram_reads)),
                    ]);
                }
                JobOutput::Traffic(r) => {
                    let p = |q: u64| {
                        r.hist
                            .percentile_permille(q)
                            .map_or(JVal::str("-"), JVal::Int)
                    };
                    pairs.extend([
                        ("kind".to_string(), JVal::str("traffic")),
                        ("model".to_string(), JVal::str(&r.model)),
                        ("workload".to_string(), JVal::str(&r.workload)),
                        ("cores".to_string(), JVal::Int(r.cores as u64)),
                        (
                            "load_permille".to_string(),
                            JVal::Int(r.load_permille as u64),
                        ),
                        (
                            "mean_interarrival".to_string(),
                            JVal::Int(r.mean_interarrival),
                        ),
                        ("cycles".to_string(), JVal::Int(r.cycles)),
                        ("offered".to_string(), JVal::Int(r.offered)),
                        ("completed".to_string(), JVal::Int(r.completed)),
                        ("shed".to_string(), JVal::Int(r.shed)),
                        ("p50".to_string(), p(500)),
                        ("p99".to_string(), p(990)),
                        ("p999".to_string(), p(999)),
                        ("dram_reads".to_string(), JVal::Int(r.mem.dram_reads)),
                    ]);
                }
            }
            JVal::Obj(pairs)
        })
        .collect();

    let doc = JVal::obj([
        ("experiment", JVal::str(exp.id)),
        ("title", JVal::str(exp.title)),
        ("scale", JVal::str(cfg.env.scale_token())),
        ("seed", JVal::Int(cfg.env.seed)),
        ("jobs", JVal::Arr(jobs)),
    ]);
    let dir = results_dir(cfg);
    let _ = fs::create_dir_all(&dir);
    let _ = fs::write(dir.join(format!("{}.json", exp.id)), doc.render_pretty());
}

fn write_manifest(cfg: &RunConfig, summary: &RunSummary) {
    let experiments: Vec<JVal> = summary
        .records
        .iter()
        .map(|e| {
            let failed = e.jobs.iter().filter(|j| j.status == "failed").count();
            JVal::obj([
                ("id", JVal::str(&e.id)),
                (
                    "status",
                    JVal::str(if failed == 0 && e.folded {
                        "ok"
                    } else if failed == e.jobs.len() && !e.jobs.is_empty() {
                        "failed"
                    } else {
                        "partial"
                    }),
                ),
                ("folded", JVal::Bool(e.folded)),
                (
                    "jobs",
                    JVal::Arr(
                        e.jobs
                            .iter()
                            .map(|j| {
                                JVal::obj([
                                    ("name", JVal::str(&j.name)),
                                    ("status", JVal::str(j.status)),
                                    ("cached", JVal::Bool(j.status == "cached")),
                                    ("duration_ms", JVal::Int(j.duration_ms)),
                                    ("execute_ns", JVal::Int(j.execute_ns)),
                                    ("cache_key", JVal::str(format!("{:016x}", j.cache_hash))),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ])
        })
        .collect();

    let failures: Vec<JVal> = summary
        .failures
        .iter()
        .map(|f| {
            JVal::obj([
                ("experiment", JVal::str(&f.experiment)),
                ("job", JVal::str(&f.job)),
                ("kind", JVal::str(&f.kind)),
                ("message", JVal::str(&f.message)),
            ])
        })
        .collect();

    // Host wall time actually simulated (cache hits excluded), grouped
    // by the job-name model token (the part before '/'): the at-a-glance
    // answer to "which model is eating the run time".
    let mut by_model: BTreeMap<String, u64> = BTreeMap::new();
    for e in &summary.records {
        for j in &e.jobs {
            if j.execute_ns > 0 {
                let tok = j.name.split('/').next().unwrap_or(&j.name);
                *by_model.entry(tok.to_string()).or_insert(0) += j.execute_ns;
            }
        }
    }
    let wall_by_model: Vec<(String, JVal)> = by_model
        .into_iter()
        .map(|(m, ns)| (m, JVal::Int(ns)))
        .collect();

    let doc = JVal::obj([
        ("version", JVal::str(env!("CARGO_PKG_VERSION"))),
        ("scale", JVal::str(cfg.env.scale_token())),
        ("seed", JVal::Int(cfg.env.seed)),
        ("max_cycles", JVal::Int(cfg.env.max_cycles)),
        ("workers", JVal::Int(cfg.jobs as u64)),
        ("sim_threads", JVal::Int(cfg.sim_threads as u64)),
        (
            "shard",
            JVal::str(
                cfg.shard
                    .map_or("-".to_string(), |(i, n)| format!("{i}/{n}")),
            ),
        ),
        ("cache_enabled", JVal::Bool(cfg.use_cache)),
        ("total_jobs", JVal::Int(summary.total_jobs as u64)),
        ("cache_hits", JVal::Int(summary.cache_hits as u64)),
        ("failed_jobs", JVal::Int(summary.failures.len() as u64)),
        ("execute_ns_by_model", JVal::Obj(wall_by_model)),
        ("experiments", JVal::Arr(experiments)),
        ("failures", JVal::Arr(failures)),
    ]);
    // `SST_MANIFEST` renames the manifest so concurrent schedulers on a
    // shared output directory (the two-process CI smoke, shard fleets)
    // don't clobber each other's run records.
    let name = std::env::var("SST_MANIFEST").unwrap_or_else(|_| "manifest.json".to_string());
    let dir = results_dir(cfg);
    let _ = fs::create_dir_all(&dir);
    let _ = fs::write(dir.join(name), doc.render_pretty());
}
