//! The `sst-run` command line.
//!
//! ```text
//! sst-run all                 # every experiment, all cores
//! sst-run e4 a1 --jobs 8     # a subset, 8 workers
//! sst-run e3 --no-cache      # force re-simulation
//! sst-run --list             # what's available
//! ```

use crate::registry;
use crate::sched::{self, RunConfig};

const USAGE: &str = "\
usage: sst-run [all | <experiment>...] [options]

Runs the study's experiments on a parallel, cached, fault-isolated
worker pool and writes tables to results/.

experiments:
  all            every experiment (E1-E14, A1-A4)
  e1 .. e12      the paper reproductions
  e13            speculative-leakage audit: taint sweep over the gadgets
  e14            open-loop service traffic: tail latency vs offered load
  a1 .. a4       the ablations
  (legacy binary names like e4_vs_ooo are accepted)

subcommands:
  trace          capture a Chrome-trace/Perfetto timeline of an
                 experiment's jobs (see `sst-run trace --help`)

options:
  --jobs N       worker threads (default: available parallelism)
  --threads N    simulation threads per CMP job (default 1; results
                 are byte-identical for any value)
  --no-cache     ignore and do not populate results/cache/
  --shard I/N    scale-out partition: execute only jobs whose cache
                 hash lands in shard I of N (0 <= I < N). Launch N
                 processes with the same out dir and I=0..N-1; they
                 divide the work deterministically with no duplicate
                 execution (claim files cover stragglers), and a final
                 unsharded run folds everything from the shared cache
  --list         list experiments and exit
  --help         this text

environment:
  SST_SCALE=smoke|full   workload scale (default full)
  SST_SEED=<u64>         data-generation seed (default 12345)
  SST_RESULTS=<dir>      output root; results/ is created under it
  SST_MAX_CYCLES=<u64>   per-job cycle budget (default 2e10)
  SST_MANIFEST=<name>    manifest filename under results/ (default
                         manifest.json; give concurrent schedulers on
                         one out dir distinct names)

exit status: 0 when every job succeeded, 1 otherwise, 2 on a usage
error or a malformed environment value.";

/// Parses a `--shard` value `"I/N"`; `None` on any malformed or
/// out-of-range input.
fn parse_shard(v: &str) -> Option<(usize, usize)> {
    let (i, n) = v.split_once('/')?;
    let i: usize = i.trim().parse().ok()?;
    let n: usize = n.trim().parse().ok()?;
    (n >= 1 && i < n).then_some((i, n))
}

/// `--list`: experiments grouped by family, one line each.
fn print_list() {
    let headers = [
        ("paper", "paper reproductions"),
        ("ablation", "ablations"),
        ("traffic", "service traffic (open-loop load sweeps)"),
    ];
    let all = registry::all();
    for (family, label) in headers {
        let members: Vec<_> = all
            .iter()
            .filter(|e| !e.hidden && e.family == family)
            .collect();
        if members.is_empty() {
            continue;
        }
        println!("{label}:");
        for e in members {
            println!("  {:<4} {}", e.id, e.title);
        }
        println!();
    }
}

/// Parses `args` (without the program name) and runs. Returns the
/// process exit code.
pub fn cli_main<I: IntoIterator<Item = String>>(args: I) -> i32 {
    let mut args = args.into_iter().peekable();
    if args.peek().map(String::as_str) == Some("trace") {
        args.next();
        return crate::trace::trace_main(args);
    }
    let mut cfg = match RunConfig::from_os() {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("sst-run: {e}");
            return 2;
        }
    };
    let mut tokens: Vec<String> = Vec::new();
    let mut want_all = false;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--help" | "-h" => {
                println!("{USAGE}");
                return 0;
            }
            "--list" => {
                print_list();
                return 0;
            }
            "--no-cache" => cfg.use_cache = false,
            "--jobs" => match args.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) if n >= 1 => cfg.jobs = n,
                _ => {
                    eprintln!("sst-run: --jobs needs a positive integer");
                    return 2;
                }
            },
            _ if a.starts_with("--jobs=") => match a["--jobs=".len()..].parse::<usize>() {
                Ok(n) if n >= 1 => cfg.jobs = n,
                _ => {
                    eprintln!("sst-run: --jobs needs a positive integer");
                    return 2;
                }
            },
            "--threads" => match args.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) if n >= 1 => cfg.sim_threads = n,
                _ => {
                    eprintln!("sst-run: --threads needs a positive integer");
                    return 2;
                }
            },
            _ if a.starts_with("--threads=") => match a["--threads=".len()..].parse::<usize>() {
                Ok(n) if n >= 1 => cfg.sim_threads = n,
                _ => {
                    eprintln!("sst-run: --threads needs a positive integer");
                    return 2;
                }
            },
            "--shard" => match args.next().as_deref().and_then(parse_shard) {
                Some(s) => cfg.shard = Some(s),
                None => {
                    eprintln!("sst-run: --shard needs I/N with 0 <= I < N (e.g. 0/4)");
                    return 2;
                }
            },
            _ if a.starts_with("--shard=") => match parse_shard(&a["--shard=".len()..]) {
                Some(s) => cfg.shard = Some(s),
                None => {
                    eprintln!("sst-run: --shard needs I/N with 0 <= I < N (e.g. 0/4)");
                    return 2;
                }
            },
            "all" => want_all = true,
            _ if a.starts_with('-') => {
                eprintln!("sst-run: unknown option {a:?}\n\n{USAGE}");
                return 2;
            }
            _ => tokens.push(a),
        }
    }

    if cfg.shard.is_some() && !cfg.use_cache {
        // Shards exchange results exclusively through the shared cache;
        // without it they could never be merged.
        eprintln!("sst-run: --shard requires the cache (drop --no-cache)");
        return 2;
    }

    let experiments = if want_all {
        registry::all()
            .into_iter()
            .filter(|e| !e.hidden)
            .collect::<Vec<_>>()
    } else if tokens.is_empty() {
        eprintln!("{USAGE}");
        return 2;
    } else {
        let mut picked = Vec::new();
        for t in &tokens {
            match registry::find(t) {
                Some(e) if !picked.iter().any(|p: &registry::Experiment| p.id == e.id) => {
                    picked.push(e)
                }
                Some(_) => {}
                None => {
                    eprintln!("sst-run: unknown experiment {t:?} (try --list)");
                    return 2;
                }
            }
        }
        picked
    };

    run_and_report(&experiments, &cfg)
}

fn run_and_report(experiments: &[registry::Experiment], cfg: &RunConfig) -> i32 {
    let n_jobs: usize = {
        let env = cfg.env;
        experiments.iter().map(|e| (e.jobs)(&env).len()).sum()
    };
    if !cfg.quiet {
        let shard = cfg
            .shard
            .map_or(String::new(), |(i, n)| format!(", shard {i}/{n}"));
        println!(
            "sst-run: {} experiment(s), {} job(s), {} worker(s), scale={}, cache {}{shard}",
            experiments.len(),
            n_jobs,
            cfg.jobs,
            cfg.env.scale_token(),
            if cfg.use_cache { "on" } else { "off" },
        );
    }
    let summary = sched::run(experiments, cfg);
    if !cfg.quiet {
        println!(
            "sst-run: {} job(s) done, {} from cache, {} failed",
            summary.total_jobs,
            summary.cache_hits,
            summary.failures.len(),
        );
        for f in &summary.failures {
            println!(
                "  FAILED {}/{} ({}): {}",
                f.experiment, f.job, f.kind, f.message
            );
        }
    }
    if summary.clean() {
        0
    } else {
        1
    }
}
